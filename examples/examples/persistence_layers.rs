//! The four §3.2 persistence layers: identical workload, different
//! overheads (blocked memory < PMFS < RAM disk < dynamic array).
//!
//! ```text
//! cargo run -p wl-examples --example persistence_layers
//! ```

use pmem_sim::{BufferPool, LayerKind, PCollection, PmDevice};
use wisconsin::{sort_input, KeyOrder};
use write_limited::sort::{SortAlgorithm, SortContext};

fn main() {
    let n = 40_000u64;
    println!("external mergesort on {n} records, M = 5%, per persistence layer\n");
    println!(
        "{:<16} {:>10} {:>12} {:>12} {:>14}",
        "layer", "time (s)", "writes", "reads", "overhead (ns)"
    );

    let mut baseline = None;
    for layer in LayerKind::ALL {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            layer,
            "T",
            sort_input(n, KeyOrder::Random, 5),
        );
        let pool = BufferPool::fraction_of(input.bytes(), 0.05);
        let ctx = SortContext::new(&dev, layer, &pool);
        let before = dev.snapshot();
        let out = SortAlgorithm::ExMS
            .run(&input, &ctx, "sorted")
            .expect("sorts");
        let stats = dev.snapshot().since(&before);
        assert_eq!(out.len() as u64, n);
        let secs = stats.time_secs(&dev.config().latency);
        let base = *baseline.get_or_insert(secs);
        println!(
            "{:<16} {:>10.4} {:>12} {:>12} {:>14.0}  ({:+.0}% vs blocked)",
            layer.label(),
            secs,
            stats.cl_writes,
            stats.cl_reads,
            stats.software_ns,
            (secs / base - 1.0) * 100.0,
        );
    }

    println!(
        "\nThe dynamic array pays reads+writes to copy itself at every \
         capacity doubling;\nthe RAM disk rounds I/O to 512-byte records and \
         pays per-call software cost;\nPMFS adds only a small per-block call \
         cost — the paper's §4.3 ordering."
    );
}
