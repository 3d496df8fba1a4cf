//! The §3.1 deferred-materialization runtime: recording a control-flow
//! graph, watching the rules fire, and running the adaptive join that is
//! driven by them.
//!
//! ```text
//! cargo run -p wl-examples --example runtime_api
//! ```

use pmem_sim::{BufferPool, DeviceConfig, LatencyProfile, LayerKind, PCollection, PmDevice};
use wisconsin::join_input;
use wl_runtime::{CStatus, Decision, OpCtx};
use write_limited::adaptive::adaptive_grace_join;
use write_limited::join::JoinContext;

fn main() {
    // ---- The paper's worked example, by hand ----
    // T of 300 buffers partitioned three ways; deferring T0 saves
    // |T|/3 writes at the cost of |T| reads.
    for lambda in [15.0, 2.0] {
        let mut ctx = OpCtx::new(lambda);
        ctx.declare("T", CStatus::Materialized, 300.0);
        for i in 0..3 {
            ctx.declare(&format!("T{i}"), CStatus::Deferred, 100.0);
        }
        ctx.partition("T", 3, &["T0", "T1", "T2"]);
        let v = ctx.assess("T0").expect("deferred");
        println!("λ = {lambda:>4}: T0 → {:?} (rule {:?})", v.decision, v.rule);
        if v.decision == Decision::Materialize {
            // Eager-partition cascades to the siblings.
            let v1 = ctx.assess("T1").expect("deferred");
            println!("          T1 → {:?} (rule {:?})", v1.decision, v1.rule);
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
