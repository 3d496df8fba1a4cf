//! Rule-driven **adaptive** segmented Grace join — the executable
//! version of the paper's §3.1 worked example.
//!
//! Unlike [`crate::join::JoinAlgorithm::SegJ`], which takes the share
//! of materialized partitions as a fixed knob, this operator
//! defers *every* partition and lets the §3.1 rules ([`crate::deferral`])
//! decide: the `read-over-write` rule compares the materialization cost
//! `λ·|partition|` against the source's accumulated read cost plus one
//! reconstruction scan, and once it fires the `eager-partition` rule
//! materializes all remaining partitions in a single source scan (no
//! input is "fully scanned twice to materialize its outputs", §3.1).
//!
//! At high λ the operator behaves like SegJ with `x = 0` (iterate-only);
//! at low λ it converges to Grace join after the first access; in
//! between it switches mid-flight exactly when the paper's rules say the
//! rescan penalty has been paid off.
//!
//! The rules read only the inputs' sizes and the passes' own scans, so
//! the schedule is decided before any I/O: a routed partition scan per
//! input whose rule fires spills its remaining partitions, and one
//! build–probe phase runs every pass — from the spilled partitions where
//! they exist, rescanning the originals where not (`join/kernel.rs`).

use crate::deferral::first_materialized_pass;
use crate::join::common::{partition_of, JoinContext, Pairs};
use crate::join::kernel::{build_probe, build_table, spill_scan, EachRecord, Phased};
use crate::parallel::Phases;
use pmem_sim::{PCollection, PmError};
use wisconsin::{Pair, Record};

/// Joins `left ⋈ right`, letting the §3.1 rules decide partition
/// materialization adaptively; returns the output beside its phases: a
/// partition scan per input the rules materialize, then the passes.
///
/// # Errors
/// Returns [`PmError::InsufficientMemory`] when Grace's applicability
/// condition fails (partitions would not fit a DRAM build table).
pub fn adaptive_grace_join<L: Record, R: Record>(
    left: &PCollection<L>,
    right: &PCollection<R>,
    ctx: &JoinContext<'_>,
    output_name: &str,
) -> Result<Phased<Pair<L, R>>, PmError> {
    let _op = ctx.operator("adaptive-grace", left.len() * L::SIZE);
    let k = ctx
        .capacity::<L>()
        .grace_partitions(left.len(), "adaptive Grace join")?;
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
    phases.push(build_probe(ctx, k, pass, &Pairs, &mut EachRecord(&mut out)));
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
        phases.push(spill_scan(source.reader(), route, &mut parts));
    }
    parts
}

/// The first partition of each input (`T`, then `V`) that the rules
/// materialize, or `k` for none: each pass scans an input once — to
/// rebuild its partition of `B/k` buffers while deferred, and to spill
/// the rest once read-over-write holds.
fn materialized_from(ctx: &JoinContext<'_>, k: usize, buffers: [u64; 2]) -> [usize; 2] {
    let lambda = ctx.device().lambda();
    buffers.map(|b| {
        let b = b as f64;
        first_materialized_pass(lambda, b / k as f64, b, k)
    })
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

    /// `materialized_from` on a device of write/read ratio `lambda`.
    fn first_spills(lambda: f64, k: usize, buffers: [u64; 2]) -> [usize; 2] {
        let dev = PmDevice::new(DeviceConfig::paper_default().with_latency(LatencyProfile {
            read_ns: 1.0,
            write_ns: lambda,
        }));
        let pool = BufferPool::new(80);
        materialized_from(
            &JoinContext::new(&dev, LayerKind::BlockedMemory, &pool),
            k,
            buffers,
        )
    }

    #[test]
    fn materialized_from_boundary_table() {
        // Each input's first pass p with λ·(B/k) ≤ (p+1)·B, or k for
        // none; λ below 1 counts as 1. Worked by hand from the inequality.
        // (λ, k, [T, V] buffers, [T, V] expected)
        let table: [(f64, usize, [u64; 2], [usize; 2]); 14] = [
            (6.0, 3, [300, 600], [1, 1]),   // λ = k·(p+1), p = 1
            (5.99, 3, [300, 600], [1, 1]),  // just below
            (6.01, 3, [300, 600], [2, 2]),  // just above
            (9.0, 3, [300, 600], [2, 2]),   // λ = k·k: the last pass
            (9.01, 3, [300, 600], [3, 3]),  // past it: never
            (3.0, 3, [300, 600], [0, 0]),   // λ = k: the first pass
            (15.0, 5, [500, 1000], [2, 2]), // λ = k·3
            (15.5, 5, [500, 1000], [3, 3]),
            (0.5, 3, [300, 600], [0, 0]), // λ < 1 is clamped to 1
            (1.0, 3, [300, 600], [0, 0]),
            (15.0, 3, [0, 600], [0, 3]), // an empty input: 0 ≤ 0
            (15.0, 3, [0, 0], [0, 0]),
            (1.0, 1, [300, 600], [0, 0]), // k = 1: λ ≤ 1 or never
            (1.5, 1, [300, 600], [1, 1]),
        ];
        for (lambda, k, buffers, want) in table {
            assert_eq!(
                first_spills(lambda, k, buffers),
                want,
                "λ={lambda} k={k} buffers={buffers:?}"
            );
        }
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
        let _ = crate::join::JoinAlgorithm::GJ
            .run(&left, &right, &ctx, "g")
            .expect("ok");
        let grace = dev.snapshot().since(&before);

        assert!(
            adaptive.cl_writes <= grace.cl_writes,
            "adaptive {} vs grace {}",
            adaptive.cl_writes,
            grace.cl_writes
        );
    }
}
