//! Runtime-driven **adaptive** segmented Grace join — the executable
//! version of the paper's §3.1 worked example.
//!
//! Unlike [`crate::join::segmented_grace_join`], which takes the number
//! of materialized partitions as a compile-time knob, this operator
//! defers *every* partition and lets the runtime decide at each access:
//! the `read-over-write` rule compares the materialization cost
//! `λ·|partition|` against the source's accumulated read cost plus one
//! reconstruction scan, and once it fires the `eager-partition` rule
//! materializes all remaining partitions in a single source scan (the
//! runtime "enforces the constraint that no input is fully scanned twice
//! to materialize its outputs", §3.1).
//!
//! At high λ the operator behaves like SegJ with `x = 0` (iterate-only);
//! at low λ it converges to Grace join after the first access; in
//! between it switches mid-flight exactly when the paper's rules say the
//! rescan penalty has been paid off.

use crate::join::common::{partition_of, JoinContext};
use crate::join::kernel::{build_table, route_scan, Route};
use pmem_sim::{PCollection, PmError};
use wisconsin::{Pair, Record};
use wl_runtime::{CStatus, OpCtx};

/// Joins `left ⋈ right`, letting the §3.1 runtime decide partition
/// materialization adaptively.
///
/// # Errors
/// Returns [`PmError::InsufficientMemory`] when Grace's applicability
/// condition fails (partitions would not fit a DRAM build table).
pub fn adaptive_grace_join<L: Record, R: Record>(
    left: &PCollection<L>,
    right: &PCollection<R>,
    ctx: &JoinContext<'_>,
    output_name: &str,
) -> Result<PCollection<Pair<L, R>>, PmError> {
    ctx.require_grace::<L>(left.len(), "adaptive Grace join")?;
    let k = ctx.grace_partitions::<L>(left.len());
    let mut rt = OpCtx::new(ctx.device().lambda().max(1.0));

    // Record the Fig. 4 blueprint with actual input sizes.
    let t_buffers = left.buffers() as f64;
    let v_buffers = right.buffers() as f64;
    rt.declare("T", CStatus::Materialized, t_buffers);
    rt.declare("V", CStatus::Materialized, v_buffers);
    let t_names: Vec<String> = (0..k).map(|i| format!("T{i}")).collect();
    let v_names: Vec<String> = (0..k).map(|i| format!("V{i}")).collect();
    for n in &t_names {
        rt.declare(n, CStatus::Deferred, t_buffers / k as f64);
    }
    for n in &v_names {
        rt.declare(n, CStatus::Deferred, v_buffers / k as f64);
    }
    {
        let refs: Vec<&str> = t_names.iter().map(String::as_str).collect();
        rt.partition("T", k, &refs);
        let refs: Vec<&str> = v_names.iter().map(String::as_str).collect();
        rt.partition("V", k, &refs);
    }

    let mut t_files: Vec<Option<PCollection<L>>> = (0..k).map(|_| None).collect();
    let mut v_files: Vec<Option<PCollection<R>>> = (0..k).map(|_| None).collect();
    let mut out = PCollection::new(ctx.device(), ctx.kind(), output_name);

    for p in 0..k {
        // ---- Build side ----
        eager_partition(&mut rt, "T", left, &t_names, &mut t_files, p, ctx);
        let table = match &t_files[p] {
            Some(file) => build_table(vec![file.reader()], None),
            None => {
                // Deferred: reconstruct by re-scanning the source.
                rt.note_scan("T", t_buffers);
                build_table(vec![left.reader()], Some((p, k)))
            }
        };

        // ---- Probe side ----
        eager_partition(&mut rt, "V", right, &v_names, &mut v_files, p, ctx);
        debug_assert!(table.holds_only(|key| partition_of(key, k) == p));
        match &v_files[p] {
            Some(file) => file
                .reader()
                .for_each_run(|run| table.probe_run(run, &mut out)),
            None => {
                // Deferred: probe with all of the source — a record of
                // another partition cannot equal a key the table holds.
                right
                    .reader()
                    .for_each_run(|run| table.probe_run(run, &mut out));
                rt.note_scan("V", v_buffers);
            }
        }
    }
    Ok(out)
}

/// The runtime's verdict on partition `p` of the input declared as
/// `source_name`, acted on: once `read-over-write` fires, the
/// `eager-partition` rule settles the fate of every remaining partition
/// and writes all materialized ones in ONE routed scan of `source`.
fn eager_partition<R: Record>(
    rt: &mut OpCtx,
    source_name: &str,
    source: &PCollection<R>,
    names: &[String],
    files: &mut [Option<PCollection<R>>],
    p: usize,
    ctx: &JoinContext<'_>,
) {
    rt.assess(&names[p]);
    if rt.status(&names[p]) != CStatus::Materialized || files[p].is_some() {
        return;
    }
    for name in names.iter().skip(p + 1) {
        rt.assess(name);
    }
    let prefix = format!("adpt-{}", source_name.to_lowercase());
    for (q, slot) in files.iter_mut().enumerate().skip(p) {
        if rt.status(&names[q]) == CStatus::Materialized {
            *slot = Some(ctx.fresh::<R>(&prefix));
        }
    }
    let k = files.len();
    route_scan(
        source.reader(),
        |key| match partition_of(key, k) {
            q if q >= p => Route::Spill(q),
            _ => Route::Skip,
        },
        |_| {},
        |q, bytes| {
            if let Some(file) = &mut files[q] {
                file.append_bytes(bytes);
            }
        },
    );
    rt.note_scan(source_name, source.buffers() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::{BufferPool, DeviceConfig, LatencyProfile, LayerKind, PmDevice};
    use wisconsin::join_input;

    fn run(lambda: f64) -> (pmem_sim::IoStats, u64, u64, u64) {
        let dev = PmDevice::new(
            DeviceConfig::paper_default().with_latency(LatencyProfile::with_lambda(10.0, lambda)),
        );
        let w = join_input(400, 6, 31);
        let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
        let right =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
        let inputs = left.buffers() + right.buffers();
        let pool = BufferPool::new(60 * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let before = dev.snapshot();
        let out = adaptive_grace_join(&left, &right, &ctx, "out").expect("applicable");
        (
            dev.snapshot().since(&before),
            out.len() as u64,
            w.expected_matches,
            inputs,
        )
    }

    #[test]
    fn joins_correctly_at_high_and_low_lambda() {
        for lambda in [15.0, 1.5] {
            let (_, got, want, _) = run(lambda);
            assert_eq!(got, want, "λ={lambda}");
        }
    }

    #[test]
    fn high_lambda_defers_low_lambda_materializes() {
        let (hi, _, _, inputs) = run(15.0);
        let (lo, _, _, _) = run(1.5);
        // λ=15: partitions stay deferred longer → more reads, fewer writes.
        assert!(
            hi.cl_reads > lo.cl_reads,
            "hi {} lo {}",
            hi.cl_reads,
            lo.cl_reads
        );
        assert!(hi.cl_writes < lo.cl_writes + inputs, "writes should differ");
        assert!(lo.cl_writes > hi.cl_writes);
    }

    #[test]
    fn adaptive_never_writes_more_than_grace() {
        let dev = PmDevice::paper_default();
        let w = join_input(400, 6, 31);
        let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
        let right =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
        let pool = BufferPool::new(60 * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);

        let before = dev.snapshot();
        let _ = adaptive_grace_join(&left, &right, &ctx, "a").expect("ok");
        let adaptive = dev.snapshot().since(&before);

        let before = dev.snapshot();
        let _ = crate::join::grace_join(&left, &right, &ctx, "g").expect("ok");
        let grace = dev.snapshot().since(&before);

        assert!(
            adaptive.cl_writes <= grace.cl_writes,
            "adaptive {} vs grace {}",
            adaptive.cl_writes,
            grace.cl_writes
        );
    }
}
