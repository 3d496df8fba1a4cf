//! Plan-level deferred materialization — the §3.1 "Extensions"
//! paragraph, made executable.
//!
//! The paper generalizes its single-operator optimization "to entire
//! evaluation plans, assuming that the operators are connected through
//! intermediate result collections". [`filtered_iterate_join`] runs such
//! a connection: a filter whose output collection starts *deferred*,
//! under the iterate-only segmented Grace join (`x = 0`), whose `k`
//! passes over the filtered left input are exactly the
//! repeated-processing pattern the rules exist for. Each pass re-filters
//! the source while the view stays deferred; once the `read-over-write`
//! rule ([`crate::deferral`]) fires, that pass **piggybacks**
//! materialization — writing the filtered rows while producing them —
//! and later passes read the materialized view. Selective filters
//! materialize after the first pass, while non-selective ones stay
//! deferred as long as `k ≤ λ`.
//!
//! The rule reads only the view's estimated size and the passes' own
//! source scans, so the pass that materializes is decided before any
//! I/O. The schedule (`join/kernel.rs`): a build–probe phase of the
//! re-filtering passes before it, the materializing pass, and a
//! build–probe phase of the passes over the view after it.

use crate::deferral::first_materialized_pass;
use crate::join::common::{partition_of, BuildTable, JoinContext, OutputShape};
use crate::join::kernel::{build_probe, build_table, EachRecord, Phased};
use crate::parallel::{measured, Label, Phases};
use pmem_sim::{PCollection, PmError};
use wisconsin::Record;

/// `σ(left) ⋈ right` with the filter output deferred, joined by the
/// iterate-only segmented Grace join: one pass over the view and the
/// right input per partition, the §3.1 rules deciding when the view stops
/// being re-filtered and gets materialized. `selectivity` is the
/// filter's expected output fraction, the estimate the rules weigh.
/// Each match lands as `shape` emits it ([`crate::join::Pairs`] for the
/// pairs). Returns the output beside its phases.
///
/// # Errors
/// Returns [`PmError::InvalidParameter`] unless `0 ≤ selectivity ≤ 1`,
/// and [`PmError::InsufficientMemory`] when Grace's applicability
/// condition fails for the (unfiltered) left side.
pub fn filtered_iterate_join<L: Record, R: Record, S: OutputShape<L, R>>(
    left: &PCollection<L>,
    predicate: impl Fn(&L) -> bool + Sync,
    selectivity: f64,
    right: &PCollection<R>,
    shape: &S,
    ctx: &JoinContext<'_>,
    output_name: &str,
) -> Result<Phased<S::Out>, PmError> {
    let _op = ctx.operator("deferred-join", left.len() * L::SIZE);
    if !(0.0..=1.0).contains(&selectivity) {
        return Err(PmError::InvalidParameter {
            name: "selectivity",
            message: format!("filter selectivity must be in [0,1], got {selectivity}"),
        });
    }
    let k = ctx
        .capacity::<L>()
        .grace_partitions(left.len(), "filtered join")?;
    let (at, view) = materialized_at(ctx, k, left.buffers(), selectivity);

    // A pass re-filters the source: the predicate sees a record, so
    // every one is decoded; a survivor is materialized, if `view` is
    // given, and built into the table as the bytes it was read as.
    let refilter = |p: usize, mut view: Option<&mut PCollection<L>>| {
        let mut table = BuildTable::new();
        left.reader().for_each_view(|record| {
            let l = record.get();
            if predicate(&l) {
                if let Some(view) = view.as_deref_mut() {
                    view.append_bytes(record.bytes());
                }
                if partition_of(l.key(), k) == p {
                    table.insert_bytes(record.bytes());
                }
            }
        });
        table
    };
    let mut phases = Phases::new();
    let mut out = PCollection::new(ctx.device(), ctx.kind(), output_name);
    if at > 0 {
        // The passes before the rule fires, landing record by record as
        // the serial passes that probed straight into the output did.
        let deferred = |p| (refilter(p, None), vec![right.reader()]);
        let out = &mut EachRecord(&mut out);
        phases.push(build_probe(ctx, at, deferred, shape, out));
    }
    if at < k {
        // The pass the rule fires on writes the view as it scans.
        let (view, materialize) = measured(Label::Materialize, || {
            let mut view = PCollection::new(ctx.device(), ctx.kind(), format!("{view}-mat"));
            let table = refilter(at, Some(&mut view));
            right
                .reader()
                .for_each_run(|run| table.probe_run(run, shape, &mut out));
            view
        });
        phases.push(materialize);
        // The materialized view is immutable: the later passes are
        // independent rescans of it.
        if at + 1 < k {
            let from_view = |i| {
                let table = build_table(vec![view.reader()], Some((at + 1 + i, k)));
                (table, vec![right.reader()])
            };
            phases.push(build_probe(ctx, k - at - 1, from_view, shape, &mut out));
        }
    }
    Ok((out, phases))
}

/// The pass at which the rules materialize the view, or `k` for none,
/// and the view's name: each deferred pass scans the source once to
/// rebuild the view of `B·f` buffers.
fn materialized_at(
    ctx: &JoinContext<'_>,
    k: usize,
    source_buffers: u64,
    selectivity: f64,
) -> (usize, &'static str) {
    let buffers = source_buffers as f64;
    let lambda = ctx.device().lambda();
    let at = first_materialized_pass(lambda, buffers * selectivity, buffers, k);
    (at, "filtered#1")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::Pairs;
    use pmem_sim::{BufferPool, DeviceConfig, LatencyProfile, LayerKind, Pm, PmDevice};
    use wisconsin::{join_input, Pair, WisconsinRecord};

    fn stage(
        t: u64,
        fanout: u64,
        lambda: f64,
    ) -> (
        Pm,
        PCollection<WisconsinRecord>,
        PCollection<WisconsinRecord>,
    ) {
        let dev = PmDevice::new(
            DeviceConfig::paper_default().with_latency(LatencyProfile::with_lambda(10.0, lambda)),
        );
        let w = join_input(t, fanout, 64);
        let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
        let right =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
        (dev, left, right)
    }

    /// The join of `σ(left)` at `m_records` of DRAM: its output, the
    /// pass the view materializes at, and the partition count.
    fn join(
        (dev, left, right): &(
            Pm,
            PCollection<WisconsinRecord>,
            PCollection<WisconsinRecord>,
        ),
        m_records: usize,
        keep: impl Fn(&WisconsinRecord) -> bool + Sync,
        selectivity: f64,
    ) -> (
        PCollection<Pair<WisconsinRecord, WisconsinRecord>>,
        usize,
        usize,
    ) {
        let pool = BufferPool::new(m_records * 80);
        let ctx = JoinContext::new(dev, LayerKind::BlockedMemory, &pool);
        let k = ctx
            .capacity::<WisconsinRecord>()
            .partitions(left.len() as f64) as usize;
        let (at, _) = materialized_at(&ctx, k, left.buffers(), selectivity);
        let (out, _) = filtered_iterate_join(left, keep, selectivity, right, &Pairs, &ctx, "out")
            .expect("applicable");
        (out, at, k)
    }

    #[test]
    fn materialized_at_boundary_table() {
        // The first pass p with λ·(B·f) ≤ (p+1)·B, or k for none; λ
        // below 1 counts as 1. Worked by hand from the inequality.
        // (λ, k, source buffers B, selectivity f, expected pass)
        let table: [(f64, usize, u64, f64, usize); 15] = [
            (6.0, 8, 600, 0.5, 2),  // λ·f = p+1, p = 2
            (5.99, 8, 600, 0.5, 2), // just below
            (6.01, 8, 600, 0.5, 3), // just above
            (3.0, 4, 600, 1.0, 2),  // f = 1: λ = p+1
            (3.01, 4, 600, 1.0, 3),
            (4.0, 4, 600, 1.0, 3),  // the last pass
            (4.01, 4, 600, 1.0, 4), // past it: never
            (15.0, 4, 600, 1.0, 4),
            (1e6, 4, 600, 0.0, 0), // f = 0: an empty view costs nothing
            (0.5, 4, 600, 1.0, 0), // λ < 1 is clamped to 1
            (1.0, 4, 600, 1.0, 0),
            (15.0, 4, 0, 0.5, 0),  // an empty source: 0 ≤ 0
            (1.0, 1, 600, 1.0, 0), // k = 1: λ·f ≤ 1 or never
            (2.0, 1, 600, 1.0, 1),
            (15.0, 1, 600, 0.05, 0),
        ];
        for (lambda, k, buffers, f, want) in table {
            let dev = PmDevice::new(DeviceConfig::paper_default().with_latency(LatencyProfile {
                read_ns: 1.0,
                write_ns: lambda,
            }));
            let pool = BufferPool::new(80);
            let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
            let (at, view) = materialized_at(&ctx, k, buffers, f);
            assert_eq!(at, want, "λ={lambda} k={k} B={buffers} f={f}");
            // The materialized view's name is pinned by the counter corpus.
            assert_eq!(view, "filtered#1");
        }
    }

    #[test]
    fn filtered_join_matches_reference() {
        // Keep even keys: half the matches survive.
        let (out, _, _) = join(&stage(400, 5, 15.0), 40, |r| r.key() % 2 == 0, 0.5);
        assert_eq!(out.len(), 1000); // 400·5 / 2
        assert!(out.to_vec_uncounted().iter().all(|p| p.left.key() % 2 == 0));
    }

    #[test]
    fn selective_filter_materializes_after_first_pass() {
        // 5% selectivity: λ·f = 0.75 ≤ 1 scan — the read-over-write rule
        // fires immediately on first access.
        let (_, at, k) = join(&stage(600, 4, 15.0), 40, |r| r.key() % 20 == 0, 0.05);
        assert!(k >= 3, "need several passes, got k={k}");
        assert_eq!(at, 0, "selective view should materialize on the first pass");
    }

    #[test]
    fn non_selective_filter_stays_deferred_at_high_lambda() {
        // f = 1: materializing costs λ·|T| writes; with k ≤ λ passes the
        // re-filtering reads never catch up.
        let (out, at, k) = join(&stage(600, 4, 15.0), 60, |_| true, 1.0);
        assert!(k as f64 <= 15.0, "test needs k ≤ λ");
        assert_eq!(at, k, "f=1 view should stay deferred");
        assert_eq!(out.len(), 2400);
    }

    #[test]
    fn materialization_pays_off_in_write_read_profile() {
        // Selective deferred-then-materialized plan vs always-refilter:
        // compare against a medium pinned to defer (λ extremely high).
        let run = |lambda: f64| {
            let staged = stage(600, 4, lambda);
            let before = staged.0.snapshot();
            let (_, at, k) = join(&staged, 40, |r| r.key() % 20 == 0, 0.05);
            (staged.0.snapshot().since(&before), at < k)
        };
        let (adaptive, materialized) = run(15.0);
        let (always_defer, stayed) = run(1e6);
        assert!(materialized && !stayed);
        assert!(adaptive.cl_reads < always_defer.cl_reads);
        assert!(adaptive.cl_writes > always_defer.cl_writes);
    }

    #[test]
    fn a_selectivity_outside_the_unit_interval_is_a_typed_error() {
        let staged = stage(40, 2, 15.0);
        let (dev, left, right) = &staged;
        for selectivity in [1.5, -0.1, f64::NAN] {
            let pool = BufferPool::new(20 * 80);
            let ctx = JoinContext::new(dev, LayerKind::BlockedMemory, &pool);
            let got =
                filtered_iterate_join(left, |_| true, selectivity, right, &Pairs, &ctx, "out");
            assert!(
                matches!(
                    got,
                    Err(PmError::InvalidParameter {
                        name: "selectivity",
                        ..
                    })
                ),
                "{selectivity}"
            );
            // Held and counted once, like any refused call.
            assert_eq!(pool.reservations(), 1, "{selectivity}");
        }
    }
}
