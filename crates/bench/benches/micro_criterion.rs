//! Wall-clock microbenchmarks of the core kernels (independent of the
//! simulated-latency figures — these measure the library's own CPU
//! efficiency).
//!
//! Originally a Criterion harness; the workspace builds offline, so this
//! is a plain `harness = false` target timing each kernel over a few
//! iterations with `std::time::Instant` and reporting min/mean.

use pmem_sim::{BufferPool, LayerKind, PCollection, PmDevice};
use std::time::Instant;
use wisconsin::{join_input, sort_input, KeyOrder};
use write_limited::join::{JoinAlgorithm, JoinContext};
use write_limited::sort::{cycle_sort, SortAlgorithm, SortContext};

const ITERS: usize = 5;

fn time<F: FnMut() -> usize>(label: &str, mut f: F) {
    // One warm-up run, then ITERS timed runs.
    let mut checksum = f();
    let mut times = Vec::with_capacity(ITERS);
    for _ in 0..ITERS {
        let start = Instant::now();
        checksum = checksum.max(f());
        times.push(start.elapsed().as_secs_f64());
    }
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    println!("{label:<24} min {min:>9.4}s   mean {mean:>9.4}s   (result {checksum})");
}

fn bench_sorts() {
    for n in [10_000u64, 50_000] {
        time(&format!("sort/exms/{n}"), || {
            let dev = PmDevice::paper_default();
            let input = PCollection::from_records_uncounted(
                &dev,
                LayerKind::BlockedMemory,
                "t",
                sort_input(n, KeyOrder::Random, 1),
            );
            let pool = BufferPool::fraction_of(input.bytes(), 0.05);
            let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
            SortAlgorithm::ExMS
                .run(&input, &ctx, "sorted")
                .expect("sorts")
                .len()
        });
        time(&format!("sort/segs50/{n}"), || {
            let dev = PmDevice::paper_default();
            let input = PCollection::from_records_uncounted(
                &dev,
                LayerKind::BlockedMemory,
                "t",
                sort_input(n, KeyOrder::Random, 1),
            );
            let pool = BufferPool::fraction_of(input.bytes(), 0.05);
            let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
            SortAlgorithm::SegS { x: 0.5 }
                .run(&input, &ctx, "sorted")
                .expect("valid")
                .len()
        });
    }
}

fn bench_joins() {
    for t in [5_000u64, 20_000] {
        time(&format!("join/grace/{t}"), || {
            let dev = PmDevice::paper_default();
            let w = join_input(t, 5, 1);
            let left =
                PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
            let right =
                PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
            let pool = BufferPool::fraction_of(left.bytes(), 0.1);
            let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
            JoinAlgorithm::GJ
                .run(&left, &right, &ctx, "out")
                .expect("applicable")
                .len()
        });
    }
    time("join/lazy_5k_x_25k", || {
        let dev = PmDevice::paper_default();
        let w = join_input(5_000, 5, 1);
        let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
        let right =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
        let pool = BufferPool::fraction_of(left.bytes(), 0.1);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        JoinAlgorithm::LaJ
            .run(&left, &right, &ctx, "out")
            .expect("joins")
            .len()
    });
}

fn bench_btree() {
    use wl_index::{BPlusTree, LeafPolicy};
    for (name, policy) in [
        ("sorted", LeafPolicy::Sorted),
        ("append", LeafPolicy::Append),
    ] {
        time(&format!("btree_insert_10k/{name}"), || {
            let dev = PmDevice::paper_default();
            let mut t = BPlusTree::new(&dev, 1024, policy);
            for i in 0..10_000u64 {
                t.insert((i * 7919) % 10_000, i);
            }
            t.len()
        });
    }
}

fn bench_cycle_sort() {
    let base: Vec<u64> = (0..2000).map(|i| (i * 7919) % 2000).collect();
    time("cycle_sort_2k", || {
        let mut v = base.clone();
        cycle_sort(&mut v)
    });
}

fn main() {
    bench_sorts();
    bench_joins();
    bench_btree();
    bench_cycle_sort();
}
