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

use crate::join::common::{partition_of, view_key, BuildTable, JoinContext};
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
    if !ctx.grace_applicable::<L>(left.len()) {
        return Err(PmError::InsufficientMemory {
            requirement: format!(
                "adaptive Grace join needs M > sqrt(f*|T|): M = {} records, |T| = {}",
                ctx.capacity_records::<L>(),
                left.len()
            ),
        });
    }
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
        rt.assess(&t_names[p]);
        if rt.status(&t_names[p]) == CStatus::Materialized && t_files[p].is_none() {
            // Eager-partition: settle the fate of every remaining
            // partition now, then write all materialized ones in ONE scan.
            for name in t_names.iter().skip(p + 1) {
                rt.assess(name);
            }
            for (q, slot) in t_files.iter_mut().enumerate().skip(p) {
                if rt.status(&t_names[q]) == CStatus::Materialized {
                    *slot = Some(ctx.fresh::<L>("adpt-t"));
                }
            }
            left.reader().for_each_view(|l| {
                let q = partition_of(view_key(&l), k);
                if let Some(file) = t_files.get_mut(q).and_then(|f| f.as_mut()) {
                    if q >= p {
                        file.append_bytes(l.bytes());
                    }
                }
            });
            rt.note_scan("T", t_buffers);
        }
        let mut table = BuildTable::new();
        match &t_files[p] {
            Some(file) => file.reader().for_each_view(|l| table.insert(l.get())),
            None => {
                // Deferred: reconstruct by re-scanning the source.
                left.reader().for_each_view(|l| {
                    if partition_of(view_key(&l), k) == p {
                        table.insert(l.get());
                    }
                });
                rt.note_scan("T", t_buffers);
            }
        }

        // ---- Probe side ----
        rt.assess(&v_names[p]);
        if rt.status(&v_names[p]) == CStatus::Materialized && v_files[p].is_none() {
            for name in v_names.iter().skip(p + 1) {
                rt.assess(name);
            }
            for (q, slot) in v_files.iter_mut().enumerate().skip(p) {
                if rt.status(&v_names[q]) == CStatus::Materialized {
                    *slot = Some(ctx.fresh::<R>("adpt-v"));
                }
            }
            right.reader().for_each_view(|r| {
                let q = partition_of(view_key(&r), k);
                if let Some(file) = v_files.get_mut(q).and_then(|f| f.as_mut()) {
                    if q >= p {
                        file.append_bytes(r.bytes());
                    }
                }
            });
            rt.note_scan("V", v_buffers);
        }
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
