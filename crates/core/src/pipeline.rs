//! Plan-level deferred materialization — the §3.1 "Extensions"
//! paragraph, made executable.
//!
//! The paper generalizes its single-operator optimization "to entire
//! evaluation plans, assuming that the operators are connected through
//! intermediate result collections". [`DeferredFilter`] is such a
//! connection: a filter operator whose output collection starts
//! *deferred*. Consumers scan it as a view — each scan re-filters the
//! source — while the runtime tracks accumulated reads and processing
//! counts; once the `read-over-write` (or `multi-process`) rule fires,
//! the next scan **piggybacks** materialization (writing the filtered
//! rows while producing them) and later scans read the materialized
//! collection.
//!
//! The included [`filtered_iterate_join`] puts the view under the
//! iterate-only segmented Grace join, whose `k` passes over the left
//! input are exactly the repeated-processing pattern the rules exist
//! for: selective filters materialize after the first pass, while
//! non-selective ones stay deferred as long as `k ≤ λ`.

use crate::join::common::{partition_of, BuildTable, JoinContext};
use crate::join::kernel::{build_probe, build_table};
use pmem_sim::{PCollection, PmError};
use wisconsin::{Pair, Record};
use wl_runtime::{CStatus, Decision, OpCtx};

/// A filter operator whose output is a deferred collection.
pub struct DeferredFilter<'a, R: Record> {
    source: &'a PCollection<R>,
    predicate: Box<dyn Fn(&R) -> bool + 'a>,
    source_name: String,
    name: String,
    materialized: Option<PCollection<R>>,
}

impl<'a, R: Record> std::fmt::Debug for DeferredFilter<'a, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeferredFilter")
            .field("source", &self.source_name)
            .field("name", &self.name)
            .field("materialized", &self.materialized.is_some())
            .finish()
    }
}

impl<'a, R: Record> DeferredFilter<'a, R> {
    /// Declares `filter(source, p(), selectivity, F)` in the runtime
    /// context and returns the deferred view.
    pub fn new(
        source: &'a PCollection<R>,
        predicate: impl Fn(&R) -> bool + 'a,
        selectivity: f64,
        rt: &mut OpCtx,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&selectivity),
            "selectivity must be in [0,1]"
        );
        let source_name = rt.create_name("src");
        let name = rt.create_name("filtered");
        rt.declare(&source_name, CStatus::Materialized, source.buffers() as f64);
        rt.declare(
            &name,
            CStatus::Deferred,
            source.buffers() as f64 * selectivity,
        );
        rt.filter(&source_name, selectivity, &name);
        Self {
            source,
            predicate: Box::new(predicate),
            source_name,
            name,
            materialized: None,
        }
    }

    /// Whether the view has been materialized (by a rule firing).
    pub fn is_materialized(&self) -> bool {
        self.materialized.is_some()
    }

    /// The view's collection name in the runtime graph.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Scans the view, invoking `consume` per qualifying record. The
    /// runtime is consulted first: on a materialize verdict the scan
    /// writes the filtered output as it streams (piggybacked, so the
    /// source is not scanned twice), and subsequent scans read it back.
    pub fn scan(&mut self, rt: &mut OpCtx, ctx: &JoinContext<'_>, mut consume: impl FnMut(R)) {
        if let Some(m) = &self.materialized {
            m.reader().for_each_view(|r| consume(r.get()));
            rt.note_scan(&self.name, m.buffers() as f64);
            return;
        }
        let verdict = rt.assess(&self.name);
        let materialize = verdict.is_some_and(|v| v.decision == Decision::Materialize);
        let mut file = materialize
            .then(|| PCollection::<R>::new(ctx.device(), ctx.kind(), format!("{}-mat", self.name)));
        self.source.reader().for_each_view(|view| {
            // The predicate sees a record, so every one is decoded; a
            // survivor is materialized as the bytes it was read as.
            let r = view.get();
            if (self.predicate)(&r) {
                if let Some(file) = file.as_mut() {
                    file.append_bytes(view.bytes());
                }
                consume(r);
            }
        });
        rt.note_scan(&self.source_name, self.source.buffers() as f64);
        if let Some(file) = file {
            rt.set_size(&self.name, file.buffers() as f64);
            rt.mark_materialized(&self.name);
            self.materialized = Some(file);
        }
    }
}

/// `σ(left) ⋈ right` with the filter output deferred, joined by the
/// iterate-only segmented Grace join (`x = 0`): one pass over the view
/// and the right input per partition. The runtime decides when the view
/// stops being re-filtered and gets materialized.
///
/// # Errors
/// Returns [`PmError::InsufficientMemory`] when Grace's applicability
/// condition fails for the (filtered) left side.
pub fn filtered_iterate_join<L: Record, R: Record>(
    filter: &mut DeferredFilter<'_, L>,
    right: &PCollection<R>,
    ctx: &JoinContext<'_>,
    rt: &mut OpCtx,
    output_name: &str,
) -> Result<PCollection<Pair<L, R>>, PmError> {
    ctx.require_grace::<L>(filter.source.len(), "filtered join")?;
    let k = ctx.grace_partitions::<L>(filter.source.len());
    let mut out = PCollection::new(ctx.device(), ctx.kind(), output_name);
    for p in 0..k {
        if let Some(m) = &filter.materialized {
            // Once the runtime has materialized the view it is immutable,
            // so the remaining passes are independent rescans of it — one
            // build–probe phase, with the runtime's scan bookkeeping
            // after it (identical counters and rule state at any DoP).
            // Passes *before* this point stay serial: each may flip the
            // materialization decision, which is order-dependent.
            let pass = |i| {
                (
                    build_table(vec![m.reader()], Some((p + i, k))),
                    vec![right.reader()],
                )
            };
            build_probe(ctx, k - p, pass, &mut out);
            for _ in p..k {
                rt.note_scan(&filter.name, m.buffers() as f64);
            }
            break;
        }
        let mut table = BuildTable::new();
        filter.scan(rt, ctx, |l| {
            if partition_of(l.key(), k) == p {
                table.insert(l);
            }
        });
        right
            .reader()
            .for_each_run(|run| table.probe_run(run, &mut out));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::{BufferPool, LayerKind, PmDevice};
    use wisconsin::{join_input, WisconsinRecord};

    fn stage(
        t: u64,
        fanout: u64,
        m_records: usize,
    ) -> (
        pmem_sim::Pm,
        PCollection<WisconsinRecord>,
        PCollection<WisconsinRecord>,
        usize,
    ) {
        let dev = PmDevice::paper_default();
        let w = join_input(t, fanout, 64);
        let left = PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "T", w.left);
        let right =
            PCollection::from_records_uncounted(&dev, LayerKind::BlockedMemory, "V", w.right);
        (dev, left, right, m_records)
    }

    #[test]
    fn filtered_join_matches_reference() {
        let (dev, left, right, m) = stage(400, 5, 40);
        let pool = BufferPool::new(m * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let mut rt = OpCtx::new(dev.lambda());
        // Keep even keys: half the matches survive.
        let mut filter = DeferredFilter::new(&left, |r| r.key() % 2 == 0, 0.5, &mut rt);
        let out =
            filtered_iterate_join(&mut filter, &right, &ctx, &mut rt, "out").expect("applicable");
        assert_eq!(out.len(), 1000); // 400·5 / 2
        assert!(out.to_vec_uncounted().iter().all(|p| p.left.key() % 2 == 0));
    }

    #[test]
    fn selective_filter_materializes_after_first_pass() {
        let (dev, left, right, m) = stage(600, 4, 40);
        let pool = BufferPool::new(m * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let k = ctx.grace_partitions::<WisconsinRecord>(left.len());
        assert!(k >= 3, "need several passes, got k={k}");
        let mut rt = OpCtx::new(dev.lambda());
        // 5% selectivity: λ·f = 0.75 ≤ 1 scan — the read-over-write rule
        // fires immediately on first access.
        let mut filter = DeferredFilter::new(&left, |r| r.key() % 20 == 0, 0.05, &mut rt);
        let _ =
            filtered_iterate_join(&mut filter, &right, &ctx, &mut rt, "out").expect("applicable");
        assert!(
            filter.is_materialized(),
            "selective view should materialize"
        );
    }

    #[test]
    fn non_selective_filter_stays_deferred_at_high_lambda() {
        let (dev, left, right, m) = stage(600, 4, 60);
        let pool = BufferPool::new(m * 80);
        let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let k = ctx.grace_partitions::<WisconsinRecord>(left.len());
        assert!((k as f64) <= dev.lambda(), "test needs k ≤ λ");
        let mut rt = OpCtx::new(dev.lambda());
        // f = 1: materializing costs λ·|T| writes; with k ≤ λ passes the
        // re-filtering reads never catch up.
        let mut filter = DeferredFilter::new(&left, |_| true, 1.0, &mut rt);
        let out =
            filtered_iterate_join(&mut filter, &right, &ctx, &mut rt, "out").expect("applicable");
        assert!(!filter.is_materialized(), "f=1 view should stay deferred");
        assert_eq!(out.len(), 2400);
    }

    #[test]
    fn materialization_pays_off_in_write_read_profile() {
        // Selective deferred-then-materialized plan vs always-refilter:
        // compare against a runtime pinned to defer (λ extremely high).
        let run = |lambda: f64| {
            let (dev, left, right, m) = stage(600, 4, 40);
            let pool = BufferPool::new(m * 80);
            let ctx = JoinContext::new(&dev, LayerKind::BlockedMemory, &pool);
            let mut rt = OpCtx::new(lambda);
            let mut filter = DeferredFilter::new(&left, |r| r.key() % 20 == 0, 0.05, &mut rt);
            let before = dev.snapshot();
            let _ = filtered_iterate_join(&mut filter, &right, &ctx, &mut rt, "out")
                .expect("applicable");
            (dev.snapshot().since(&before), filter.is_materialized())
        };
        let (adaptive, materialized) = run(15.0);
        let (always_defer, stayed) = run(1e6);
        assert!(materialized && !stayed);
        assert!(adaptive.cl_reads < always_defer.cl_reads);
        assert!(adaptive.cl_writes > always_defer.cl_writes);
    }
}
