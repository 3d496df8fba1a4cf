//! The §3.1 deferral rules: the paper's worked example in closed form,
//! and the adaptive join they drive.
//!
//! ```text
//! cargo run -p wl-examples --example runtime_api
//! ```

use pmem_sim::{BufferPool, DeviceConfig, LatencyProfile, LayerKind, PCollection, PmDevice};
use wisconsin::join_input;
use write_limited::adaptive::adaptive_grace_join;
use write_limited::deferral::first_materialized_pass;
use write_limited::join::JoinContext;

fn main() {
    // ---- The paper's worked example, by hand ----
    // T of 300 buffers partitioned three ways; deferring T0 saves
    // |T|/3 writes at the cost of |T| reads on each of the three passes.
    for lambda in [15.0, 2.0] {
        if first_materialized_pass(lambda, 100.0, 300.0, 3) == 0 {
            println!("λ = {lambda:>4}: T0 → Materialize (rule read-over-write)");
            // The scan that writes T0 spills its siblings too.
            println!("          T1 → Materialize (rule eager-partition)");
        } else {
            println!("λ = {lambda:>4}: T0 → Defer (rule none fires on the first pass)");
        }
    }

    // ---- The same rules driving a real join ----
    println!("\nadaptive segmented Grace join (runtime decides materialization):");
    for lambda in [15.0, 2.0] {
        let dev = PmDevice::new(
            DeviceConfig::paper_default().with_latency(LatencyProfile::with_lambda(10.0, lambda)),
        );
        let w = join_input(5_000, 8, 9);
        let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
        let right =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
        let pool = BufferPool::fraction_of(left.bytes(), 0.1);
        let jctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let before = dev.snapshot();
        let (out, _) = adaptive_grace_join(&left, &right, &jctx, "out").expect("applicable");
        let stats = dev.snapshot().since(&before);
        assert_eq!(out.len() as u64, w.expected_matches);
        println!(
            "  λ = {lambda:>4}: {:.3}s simulated, {} writes, {} reads \
             (cheap writes → materialize early; expensive → rescan)",
            stats.time_secs(&dev.config().latency),
            stats.cl_writes,
            stats.cl_reads,
        );
    }
}
