//! The two kernels every partitioned join is a schedule over.
//!
//! * The **routed partition scan** ([`route_scan`]) sends each record of
//!   a range, by its key, to the scan's own use ([`Route::Keep`]), to a
//!   partition ([`Route::Spill`]) or nowhere ([`Route::Skip`]);
//!   [`for_each_morsel`] runs such scans over a fixed grid of input
//!   morsels and lands their results in morsel order.
//! * The **build–probe phase** ([`build_probe`]) runs independent tasks,
//!   each probing its [`BuildTable`] with its probe scans into a buffer,
//!   and flushes the buffers in task order.
//!
//! Both fan out across the worker pool ([`fan_out`]) on grids and task
//! lists that depend on the inputs only, so output order and every
//! counter are identical at any DoP, and both return a labelled
//! [`Phase`]: a join's [`Phases`] are its kernels' phases in order.

use super::common::{partition_of, view_key, BuildTable, JoinContext, OutputShape};
use crate::parallel::{fan_out, measured, Label, Phase, Phases};
use pmem_sim::{PCollection, RecordBuffer, RecordReader, Storable};
use wisconsin::Record;

/// Records per partitioning morsel. The grid depends only on the input
/// size — never on the degree of parallelism — which keeps the counted
/// traffic DoP-invariant.
pub const PARTITION_MORSEL_RECORDS: usize = 8192;

/// A join's output of `O` rows beside its phase ledger (or a
/// fixed-size form of it).
pub(crate) type Phased<O, P = Phases> = (PCollection<O>, P);

/// A build–probe task: its table and the scans that probe it.
pub(crate) type Probe<'a, L, R> = (BuildTable<L>, Vec<RecordReader<'a, R>>);

/// A hash-partitioned input: `parts[p]` holds partition `p`'s records as
/// one piece per morsel, in input order.
pub(crate) type Partitioned<R> = Vec<Vec<PCollection<R>>>;

/// Where a routed partition scan sends one record.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Route {
    /// To the scan's own use: build or probe with it.
    Keep,
    /// To partition `p`'s spill target.
    Spill(usize),
    /// Nowhere: it belongs to another pass, or to none (a dead record).
    Skip,
}

/// The routed partition scan: every record of `scan`, in order, goes
/// where `route` sends its key — its stored bytes to `keep`, or to
/// `spill` with the partition.
#[inline]
pub(crate) fn route_scan<R: Record>(
    scan: RecordReader<'_, R>,
    route: impl Fn(u64) -> Route,
    mut keep: impl FnMut(&[u8]),
    mut spill: impl FnMut(usize, &[u8]),
) {
    scan.for_each_view(|r| match route(view_key(&r)) {
        Route::Keep => keep(r.bytes()),
        Route::Spill(p) => spill(p, r.bytes()),
        Route::Skip => {}
    });
}

/// A serial routed scan spilling each record straight into the partition
/// of `parts` that `route` names, if any: a [`Label::Partition`] phase.
pub(crate) fn spill_scan<R: Record>(
    scan: RecordReader<'_, R>,
    route: impl Fn(u64) -> Option<usize>,
    parts: &mut [PCollection<R>],
) -> Phase {
    let spill = |key| route(key).map_or(Route::Skip, Route::Spill);
    let append = |p: usize, bytes: &[u8]| parts[p].append_bytes(bytes);
    measured(Label::Partition, || route_scan(scan, spill, |_| {}, append)).1
}

/// Morsels of an input of `len` records: at least one.
fn morsels(len: usize) -> usize {
    len.div_ceil(PARTITION_MORSEL_RECORDS).max(1)
}

/// The morsel-grid driver: `scan`s each morsel of `input` (its index and
/// a reader of its records) across the worker pool as the phase `label`
/// and `land`s the results in morsel order.
pub(crate) fn for_each_morsel<R: Record, T: Send>(
    input: &PCollection<R>,
    ctx: &JoinContext<'_>,
    label: Label,
    scan: impl Fn(usize, RecordReader<'_, R>) -> T + Sync,
    land: impl FnMut(T),
) -> Phase {
    let n = input.len();
    let morsel = |m: usize| {
        let start = m * PARTITION_MORSEL_RECORDS;
        scan(
            m,
            input.range_reader(start, (start + PARTITION_MORSEL_RECORDS).min(n)),
        )
    };
    fan_out(ctx, label, morsels(n), morsel, land)
}

/// The routed partition scan over the morsel grid, spilling into one
/// piece per partition and morsel (named morsel-major on the calling
/// thread, so the names are DoP-invariant too); kept records go through
/// `keep` into the morsel's `K`, which `land`s in morsel order. Returns
/// the partitioned input and the [`Label::Partition`] phase.
pub(crate) fn partition_morsels<R: Record, K: Default + Send>(
    input: &PCollection<R>,
    k: usize,
    ctx: &JoinContext<'_>,
    prefix: &str,
    route: impl Fn(u64) -> Route + Sync,
    keep: impl Fn(&mut K, &[u8]) + Sync,
    mut land: impl FnMut(K),
) -> (Partitioned<R>, Phase) {
    let names: Vec<Vec<String>> = (0..morsels(input.len()))
        .map(|_| (0..k).map(|_| ctx.fresh_name(prefix)).collect())
        .collect();
    let mut parts: Partitioned<R> = (0..k).map(|_| Vec::with_capacity(names.len())).collect();
    let scan = |m: usize, scan: RecordReader<'_, R>| {
        let mut pieces: Vec<PCollection<R>> = names[m]
            .iter()
            .map(|name| PCollection::new(ctx.device(), ctx.kind(), name.clone()))
            .collect();
        let mut kept = K::default();
        let spill = |p: usize, bytes: &[u8]| pieces[p].append_bytes(bytes);
        route_scan(scan, &route, |bytes| keep(&mut kept, bytes), spill);
        (kept, pieces)
    };
    let phase = for_each_morsel(input, ctx, Label::Partition, scan, |(kept, pieces)| {
        land(kept);
        for (p, piece) in pieces.into_iter().enumerate() {
            parts[p].push(piece);
        }
    });
    (parts, phase)
}

/// A table of the records of `scans` in scan order: all of them, or with
/// `partition = Some((p, k))` those of partition `p` of `k` — a probe
/// needs no partition test then, as a record of another partition cannot
/// equal a key the table holds.
pub(crate) fn build_table<L: Record>(
    scans: Vec<RecordReader<'_, L>>,
    partition: Option<(usize, usize)>,
) -> BuildTable<L> {
    let route = |key| match partition {
        Some((p, k)) if partition_of(key, k) != p => Route::Skip,
        _ => Route::Keep,
    };
    let mut table = BuildTable::new();
    for scan in scans {
        route_scan(scan, route, |bytes| table.insert_bytes(bytes), |_, _| {});
    }
    table
}

/// The Grace task of one partition pair, each side as its pieces in
/// order — with nothing to scan when either side is empty.
pub(crate) fn pair<'a, L: Record, R: Record>(
    left: &'a [PCollection<L>],
    right: &'a [PCollection<R>],
) -> Probe<'a, L, R> {
    if left.iter().all(PCollection::is_empty) || right.iter().all(PCollection::is_empty) {
        return (build_table(Vec::new(), None), Vec::new());
    }
    let build = left.iter().map(PCollection::reader).collect();
    (
        build_table(build, None),
        right.iter().map(PCollection::reader).collect(),
    )
}

/// Where a build–probe phase lands each task's matches: an output
/// collection takes them in one bulk append, an [`EachRecord`] output
/// one record at a time.
pub(crate) trait Land<P: Storable> {
    /// Lands one task's matches.
    fn land(&mut self, matches: &RecordBuffer<P>);
}

impl<P: Storable> Land<P> for PCollection<P> {
    fn land(&mut self, matches: &RecordBuffer<P>) {
        self.append_buffer(matches);
    }
}

/// An output that takes a build–probe phase's matches one record at a
/// time, as a pass probing straight into it would: the dynamic-array
/// layer charges its doubling per append, so there (and only there) the
/// charges depend on the granularity.
pub(crate) struct EachRecord<'o, P: Storable>(pub(crate) &'o mut PCollection<P>);

impl<P: Storable> Land<P> for EachRecord<'_, P> {
    fn land(&mut self, matches: &RecordBuffer<P>) {
        for record in matches.records() {
            self.0.append_bytes(record);
        }
    }
}

/// The build–probe phase: `tasks` independent tasks, each building its
/// table and probing it with its scans into a buffer of `shape`'s rows
/// on a worker; the buffers land in `out` in task order.
pub(crate) fn build_probe<'a, L: Record, R: Record, S: OutputShape<L, R>>(
    ctx: &JoinContext<'_>,
    tasks: usize,
    task: impl Fn(usize) -> Probe<'a, L, R> + Sync,
    shape: &S,
    out: &mut impl Land<S::Out>,
) -> Phase {
    let probe = |i| {
        let (table, scans) = task(i);
        let mut matches = RecordBuffer::new();
        for scan in scans {
            scan.for_each_run(|run| table.probe_run(run, shape, &mut matches));
        }
        matches
    };
    let land = |matches: RecordBuffer<S::Out>| out.land(&matches);
    fan_out(ctx, Label::BuildProbe, tasks, probe, land)
}
