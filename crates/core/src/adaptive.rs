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
//!
//! The rules read only the declared sizes, the statuses and the
//! operator's own scan counts, so the schedule is decided before any
//! I/O: the runtime is stepped through the accesses the passes make,
//! and then a routed partition scan per input whose rule fired spills
//! its remaining partitions, and one build–probe phase runs every pass —
//! from the spilled partitions where they exist, rescanning the
//! originals where not (`join/kernel.rs`).

use crate::join::common::{partition_of, JoinContext};
use crate::join::kernel::{build_probe, build_table, spill_scan, EachRecord, Phased};
use crate::parallel::Phases;
use pmem_sim::{PCollection, PmError};
use wisconsin::Record;
use wl_runtime::{CStatus, OpCtx};

/// Joins `left ⋈ right`, letting the §3.1 runtime decide partition
/// materialization adaptively; returns the output beside its phases: a
/// partition scan per input the runtime materializes, then the passes.
///
/// # Errors
/// Returns [`PmError::InsufficientMemory`] when Grace's applicability
/// condition fails (partitions would not fit a DRAM build table).
pub fn adaptive_grace_join<L: Record, R: Record>(
    left: &PCollection<L>,
    right: &PCollection<R>,
    ctx: &JoinContext<'_>,
    output_name: &str,
) -> Result<Phased<L, R>, PmError> {
    ctx.require_grace::<L>(left.len(), "adaptive Grace join")?;
    let k = ctx.grace_partitions::<L>(left.len());
    let [t_from, v_from] = materialized_from(ctx, k, [left.buffers(), right.buffers()]);

    // The spills, in the order the rules fire (`T` first at a tie).
    let mut phases = Phases::new();
    let (t_parts, v_parts) = if v_from < t_from {
        let v_parts = spill(right, v_from, k, "adpt-v", ctx, &mut phases);
        (spill(left, t_from, k, "adpt-t", ctx, &mut phases), v_parts)
    } else {
        let t_parts = spill(left, t_from, k, "adpt-t", ctx, &mut phases);
        (t_parts, spill(right, v_from, k, "adpt-v", ctx, &mut phases))
    };

    // Every pass builds from its spilled partition or a rescan of the
    // original, and probes with its spilled partition or all of the
    // other input: a record of another partition cannot equal a key the
    // table holds. The passes land record by record, as the serial
    // passes that probed straight into the output did.
    let mut out = PCollection::new(ctx.device(), ctx.kind(), output_name);
    let pass = |p: usize| {
        let table = match p.checked_sub(t_from) {
            Some(i) => build_table(vec![t_parts[i].reader()], None),
            None => build_table(vec![left.reader()], Some((p, k))),
        };
        let probe = match p.checked_sub(v_from) {
            Some(i) => v_parts[i].reader(),
            None => right.reader(),
        };
        (table, vec![probe])
    };
    phases.push(build_probe(ctx, k, pass, &mut EachRecord(&mut out)));
    Ok((out, phases))
}

/// Partitions `from..k` of `source`, spilled by one routed scan whose
/// ledger joins `phases` (none when `from = k`).
fn spill<R: Record>(
    source: &PCollection<R>,
    from: usize,
    k: usize,
    prefix: &str,
    ctx: &JoinContext<'_>,
    phases: &mut Phases,
) -> Vec<PCollection<R>> {
    let mut parts: Vec<PCollection<R>> = (from..k).map(|_| ctx.fresh(prefix)).collect();
    if from < k {
        let route = |key| partition_of(key, k).checked_sub(from);
        phases.push(vec![spill_scan(source.reader(), route, &mut parts)]);
    }
    parts
}

/// The first partition of each input (`T`, then `V`) that the runtime
/// materializes, or `k` for none: the Fig. 4 graph declared with the
/// inputs' sizes in buffers, and its deferred partitions assessed pass
/// by pass — each pass scans an input once, to rebuild its partition
/// while deferred and to spill the rest once a rule fires.
fn materialized_from(ctx: &JoinContext<'_>, k: usize, [t, v]: [u64; 2]) -> [usize; 2] {
    let mut rt = OpCtx::new(ctx.device().lambda().max(1.0));
    let mut first = |source: &str, buffers: u64| {
        let buffers = buffers as f64;
        let parts: Vec<String> = (0..k).map(|i| format!("{source}{i}")).collect();
        rt.declare(source, CStatus::Materialized, buffers);
        for part in &parts {
            rt.declare(part, CStatus::Deferred, buffers / k as f64);
        }
        let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
        rt.partition(source, k, &refs);
        let fired = (0..k).find(|&p| {
            rt.assess(&parts[p]);
            rt.note_scan(source, buffers);
            rt.status(&parts[p]) == CStatus::Materialized
        });
        // The eager-partition rule materializes every later partition.
        for part in &parts[fired.map_or(k, |p| p + 1)..] {
            rt.assess(part);
        }
        fired.unwrap_or(k)
    };
    [first("T", t), first("V", v)]
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
        let (out, _) = adaptive_grace_join(&left, &right, &ctx, "out").expect("applicable");
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
