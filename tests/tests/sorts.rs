//! Integration: every sort algorithm × every persistence layer × every
//! input order produces the same, correct, totally ordered output.

use pmem_sim::{BufferPool, LayerKind, PCollection, PmDevice};
use wisconsin::{sort_input, KeyOrder, Record, WisconsinRecord};
use write_limited::sort::{SortAlgorithm, SortContext};

fn keys_of(col: &PCollection<WisconsinRecord>) -> Vec<u64> {
    col.to_vec_uncounted().iter().map(|r| r.key()).collect()
}

fn algorithms() -> Vec<SortAlgorithm> {
    vec![
        SortAlgorithm::ExMS,
        SortAlgorithm::SegS { x: 0.3 },
        SortAlgorithm::SegS { x: 0.7 },
        SortAlgorithm::HybS { x: 0.3 },
        SortAlgorithm::HybS { x: 0.7 },
        SortAlgorithm::LaS,
        SortAlgorithm::SelS,
    ]
}

#[test]
fn all_algorithms_all_layers_sort_random_input() {
    for layer in LayerKind::ALL {
        for algo in algorithms() {
            let dev = PmDevice::paper_default();
            let input = PCollection::from_records_uncounted(
                &dev,
                layer,
                "T",
                sort_input(3000, KeyOrder::Random, 77),
            );
            let pool = BufferPool::new(150 * 80);
            let ctx = SortContext::new(&dev, layer, &pool);
            let out = algo.run(&input, &ctx, "sorted").expect("valid params");
            assert_eq!(
                keys_of(&out),
                (0..3000).collect::<Vec<u64>>(),
                "{} on {}",
                algo,
                layer.label()
            );
        }
    }
}

#[test]
fn all_algorithms_handle_adversarial_orders() {
    let orders = [
        KeyOrder::Sorted,
        KeyOrder::Reverse,
        KeyOrder::NearlySorted { disorder: 0.05 },
        KeyOrder::FewDistinct { distinct: 3 },
    ];
    for order in orders {
        for algo in algorithms() {
            let dev = PmDevice::paper_default();
            let records = sort_input(2000, order, 5);
            let mut expect: Vec<u64> = records.iter().map(|r| r.key()).collect();
            expect.sort_unstable();
            let input =
                PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", records);
            let pool = BufferPool::new(100 * 80);
            let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
            let out = algo.run(&input, &ctx, "sorted").expect("valid params");
            assert_eq!(keys_of(&out), expect, "{algo} on {order:?}");
        }
    }
}

#[test]
fn payloads_travel_with_their_keys() {
    // Sorting must move whole records, not just keys.
    let dev = PmDevice::paper_default();
    let records: Vec<WisconsinRecord> = sort_input(1500, KeyOrder::Random, 3);
    let input = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", records);
    let pool = BufferPool::new(100 * 80);
    let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
    let out = SortAlgorithm::SegS { x: 0.5 }
        .run(&input, &ctx, "sorted")
        .expect("valid");
    for r in out.to_vec_uncounted() {
        assert_eq!(
            r,
            WisconsinRecord::from_key(r.key()),
            "record corrupted in flight"
        );
    }
}

#[test]
fn tiny_memory_budgets_still_sort() {
    // One-record DRAM: every algorithm must degrade, not break.
    for algo in [
        SortAlgorithm::ExMS,
        SortAlgorithm::SegS { x: 0.5 },
        SortAlgorithm::HybS { x: 0.5 },
    ] {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "T",
            sort_input(200, KeyOrder::Random, 9),
        );
        let pool = BufferPool::new(80); // exactly one record
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let out = algo.run(&input, &ctx, "sorted").expect("valid");
        assert_eq!(keys_of(&out), (0..200).collect::<Vec<u64>>(), "{algo}");
    }
}

#[test]
fn write_profile_ordering_matches_the_paper() {
    // At a mid-size memory budget with λ = 15:
    //   LaS ≤ SegS(0.2) < SegS(0.8) ≤ ExMS in writes,
    //   and the reverse holds for reads (trading writes for reads).
    let run = |algo: SortAlgorithm| {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "T",
            sort_input(20_000, KeyOrder::Random, 21),
        );
        let pool = BufferPool::fraction_of(input.bytes(), 0.05);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let before = dev.snapshot();
        algo.run(&input, &ctx, "sorted").expect("valid");
        dev.snapshot().since(&before)
    };
    let exms = run(SortAlgorithm::ExMS);
    let seg_lo = run(SortAlgorithm::SegS { x: 0.2 });
    let seg_hi = run(SortAlgorithm::SegS { x: 0.8 });
    let las = run(SortAlgorithm::LaS);

    assert!(las.cl_writes <= seg_lo.cl_writes + seg_lo.cl_writes / 10);
    assert!(seg_lo.cl_writes < seg_hi.cl_writes);
    assert!(seg_hi.cl_writes <= exms.cl_writes);
    assert!(las.cl_reads > exms.cl_reads);
    assert!(seg_lo.cl_reads > seg_hi.cl_reads);
}
