//! The one measured cell: stage a workload on a fresh device, run one
//! operator of a figure's line-up, and report simulated time plus
//! cacheline traffic. The speedup matrix and the span profile stage and
//! run their operators through the same `stage` and `run`.

use crate::scale::Scale;
use pmem_sim::{
    BufferPool, DeviceConfig, IoStats, LatencyProfile, LayerKind, PCollection, Pm, PmDevice,
};
use wisconsin::{join_input, sort_input, KeyOrder, WisconsinRecord};
use write_limited::adaptive::adaptive_grace_join;
use write_limited::context::ExecContext;
use write_limited::join::JoinAlgorithm;
use write_limited::sort::SortAlgorithm;

/// One experiment's result.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Simulated response time in seconds.
    pub secs: f64,
    /// Cacheline reads.
    pub reads: u64,
    /// Cacheline writes.
    pub writes: u64,
}

/// An operator of a figure's line-up.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Operator {
    /// A sort of `scale.sort_n` permuted records.
    Sort(SortAlgorithm),
    /// A join of `scale.join_t` left records against `join_fanout` right
    /// records each.
    Join(JoinAlgorithm),
    /// The §3.1 runtime-rule Grace join on a join's input.
    AdaptiveJoin,
}

impl Operator {
    /// The algorithm's paper-style label.
    pub fn label(&self) -> String {
        match self {
            Operator::Sort(algo) => algo.label(),
            Operator::Join(algo) => algo.label(),
            Operator::AdaptiveJoin => "adaptive".into(),
        }
    }
}

/// Everything a measured cell runs at besides its operator.
#[derive(Clone, Copy, Debug)]
pub struct Setting<'s> {
    /// Input sizes.
    pub scale: &'s Scale,
    /// Persistence layer of inputs, intermediates and output.
    pub layer: LayerKind,
    /// DRAM as a fraction of the (left) input: the paper's convention.
    pub mem: f64,
    /// Read and write latency of the medium.
    pub latency: LatencyProfile,
    /// Workload seed.
    pub seed: u64,
    /// Degree of parallelism the operator fans out to.
    pub threads: usize,
}

impl<'s> Setting<'s> {
    /// Blocked memory on PCM at the middle of `scale`'s memory sweep,
    /// seed 42: the setting a figure varies one knob of.
    pub fn new(scale: &'s Scale, threads: usize) -> Self {
        Self {
            scale,
            layer: LayerKind::BlockedMemory,
            mem: scale.mem_fractions[scale.mem_fractions.len() / 2],
            latency: LatencyProfile::PCM,
            seed: 42,
            threads,
        }
    }
}

/// Stages `op`'s input on `dev` from `seed` — one collection for a sort,
/// left and right for a join — and returns it with the number of records
/// the operator must output.
pub(crate) fn stage(
    op: Operator,
    dev: &Pm,
    layer: LayerKind,
    scale: &Scale,
    seed: u64,
) -> (Vec<PCollection<WisconsinRecord>>, u64) {
    let load = |name, records| PCollection::from_records_uncounted(dev, layer, name, records);
    match op {
        Operator::Sort(_) => {
            let input = sort_input(scale.sort_n, KeyOrder::Random, seed);
            (vec![load("T", input)], scale.sort_n)
        }
        Operator::Join(_) | Operator::AdaptiveJoin => {
            let w = join_input(scale.join_t, scale.join_fanout, seed);
            (
                vec![load("T", w.left), load("V", w.right)],
                w.expected_matches,
            )
        }
    }
}

/// Runs `op` over its staged `inputs` under `ctx`: the output count and
/// the phase ledger, or `None` when the algorithm's preconditions reject
/// the setting.
pub(crate) fn run(
    op: Operator,
    inputs: &[PCollection<WisconsinRecord>],
    ctx: &ExecContext<'_>,
) -> Option<(u64, Vec<Vec<IoStats>>)> {
    let (out, phases) = match op {
        Operator::Sort(algo) => {
            let (out, phases) = algo.run_profiled(&inputs[0], ctx, "sorted").ok()?;
            (out.len(), phases)
        }
        Operator::Join(algo) => {
            let (out, phases) = algo
                .run_profiled(&inputs[0], &inputs[1], ctx, "joined")
                .ok()?;
            (out.len(), phases)
        }
        Operator::AdaptiveJoin => {
            let (out, phases) = adaptive_grace_join(&inputs[0], &inputs[1], ctx, "joined").ok()?;
            (out.len(), phases)
        }
    };
    Some((out as u64, phases))
}

/// Runs `op` at `at`. Returns `None` when the algorithm's preconditions
/// reject the setting (the paper simply omits such points from its
/// plots).
///
/// # Panics
/// Panics if the operator returns the wrong number of records.
pub fn measure(op: Operator, at: Setting<'_>) -> Option<Measurement> {
    let dev = PmDevice::new(DeviceConfig::paper_default().with_latency(at.latency));
    let (inputs, expected) = stage(op, &dev, at.layer, at.scale, at.seed);
    let pool = BufferPool::fraction_of(inputs[0].bytes(), at.mem);
    let ctx = ExecContext::new(&dev, at.layer, &pool).with_threads(at.threads);
    let before = dev.snapshot();
    let (out, _) = run(op, &inputs, &ctx)?;
    let stats = dev.snapshot().since(&before);
    assert_eq!(out, expected, "{} returned a wrong count", op.label());
    Some(Measurement {
        secs: stats.time_secs(&at.latency),
        reads: stats.cl_reads,
        writes: stats.cl_writes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(sort_n: u64, join_t: u64, join_fanout: u64) -> Scale {
        Scale {
            sort_n,
            join_t,
            join_fanout,
            ..Scale::quick()
        }
    }

    #[test]
    fn sort_measurement_is_populated() {
        let scale = small(5000, 0, 0);
        let at = Setting {
            mem: 0.05,
            seed: 1,
            ..Setting::new(&scale, 1)
        };
        let m = measure(Operator::Sort(SortAlgorithm::ExMS), at).expect("ExMS always applicable");
        assert!(m.secs > 0.0 && m.reads > 0 && m.writes > 0);
    }

    #[test]
    fn join_measurement_is_populated() {
        let scale = small(0, 2000, 5);
        let at = Setting {
            mem: 0.05,
            seed: 1,
            ..Setting::new(&scale, 1)
        };
        let m = measure(Operator::Join(JoinAlgorithm::GJ), at).expect("GJ applicable at 5%");
        assert!(m.secs > 0.0 && m.reads > 0 && m.writes > 0);
    }

    #[test]
    fn inapplicable_settings_return_none() {
        // Grace join at 0.1% of a tiny input: M ≤ √(f|T|).
        let scale = small(0, 5000, 2);
        let at = Setting {
            mem: 0.001,
            seed: 1,
            ..Setting::new(&scale, 1)
        };
        assert!(measure(Operator::Join(JoinAlgorithm::GJ), at).is_none());
    }

    #[test]
    fn write_limited_sort_beats_exms_writes() {
        let scale = small(10_000, 0, 0);
        let at = Setting {
            mem: 0.05,
            seed: 2,
            ..Setting::new(&scale, 1)
        };
        let ex = measure(Operator::Sort(SortAlgorithm::ExMS), at).expect("ok");
        let las = measure(Operator::Sort(SortAlgorithm::LaS), at).expect("ok");
        assert!(
            (las.writes as f64) < 0.7 * ex.writes as f64,
            "LaS {} vs ExMS {}",
            las.writes,
            ex.writes
        );
    }
}
