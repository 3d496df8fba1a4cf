//! One function per table/figure of the paper's evaluation. Each renders
//! the rows/series the paper reports, from freshly simulated runs, as
//! text. Figs. 5–11 end with their winner map: per line-up, layer and
//! swept setting, the algorithm with the least *unrounded* simulated
//! time, exact ties joined by ` = ` — one `winner | …` line each, so a
//! flipped winner is a one-line diff.

use crate::measure::{measure, Measurement, Operator, Setting};
use crate::scale::Scale;
use crate::table::{fmt3, fmt_millions, render_heatmap, table};
use pmem_sim::{LatencyProfile, LayerKind};
use write_limited::cost::{join_costs, predict_join_io, predict_sort_io};
use write_limited::join::JoinAlgorithm;
use write_limited::sort::SortAlgorithm;
use write_limited::stats::kendall_tau;

/// The figures `repro --figure N` renders, in the paper's order.
pub const FIGURES: [u32; 9] = [2, 5, 6, 7, 8, 9, 10, 11, 12];

/// Renders Fig. `n` at `scale`, its operators fanning out to `threads`
/// workers; `None` if the paper's evaluation has no such figure.
pub fn figure(n: u32, scale: &Scale, threads: usize) -> Option<String> {
    let at = Setting::new(scale, threads);
    Some(match n {
        2 => fig2(),
        5 => fig5(at),
        6 => across_layers("Fig. 6", &sort_lineup(), at),
        7 => fig7(at),
        8 => across_layers("Fig. 8", &join_lineup(), at),
        9 => fig9(at),
        10 => fig10(at),
        11 => fig11(at),
        12 => fig12(at),
        _ => return None,
    })
}

/// The sort line-up of Fig. 5/6.
fn sort_lineup() -> Vec<Operator> {
    [
        SortAlgorithm::ExMS,
        SortAlgorithm::LaS,
        SortAlgorithm::HybS { x: 0.2 },
        SortAlgorithm::HybS { x: 0.8 },
        SortAlgorithm::SegS { x: 0.2 },
        SortAlgorithm::SegS { x: 0.8 },
    ]
    .map(Operator::Sort)
    .into()
}

/// The join line-up of Fig. 7(a)/8.
fn join_lineup() -> Vec<Operator> {
    [
        JoinAlgorithm::NLJ,
        JoinAlgorithm::HJ,
        JoinAlgorithm::GJ,
        JoinAlgorithm::LaJ,
        JoinAlgorithm::SegJ { frac: 0.5 },
        JoinAlgorithm::HybJ { x: 0.5, y: 0.5 },
    ]
    .map(Operator::Join)
    .into()
}

/// One row of a figure: a label and its cells, one per swept setting.
struct Row {
    label: String,
    cells: Vec<Option<Measurement>>,
}

/// Measures a row, one cell per (operator, setting).
fn row<'s>(label: String, cells: impl IntoIterator<Item = (Operator, Setting<'s>)>) -> Row {
    Row {
        label,
        cells: cells.into_iter().map(|(op, at)| measure(op, at)).collect(),
    }
}

/// `op` across the memory sweep of `at`'s scale.
fn mem_row(op: Operator, at: Setting<'_>) -> Row {
    row(
        op.label(),
        at.scale
            .mem_fractions
            .iter()
            .map(|&mem| (op, Setting { mem, ..at })),
    )
}

fn mem_settings(scale: &Scale) -> Vec<String> {
    scale
        .mem_fractions
        .iter()
        .map(|f| format!("M={:.1}%", f * 100.0))
        .collect()
}

fn header(first: &str, settings: &[String]) -> Vec<String> {
    std::iter::once(first.to_string())
        .chain(settings.iter().cloned())
        .collect()
}

/// A row's table line under `label`: its times in seconds.
fn times(label: String, row: &Row) -> Vec<String> {
    std::iter::once(label)
        .chain(
            row.cells
                .iter()
                .map(|m| m.map_or_else(|| "n/a".into(), |m| fmt3(m.secs))),
        )
        .collect()
}

fn time_table(title: &str, settings: &[String], rows: &[Row]) -> String {
    let lines: Vec<Vec<String>> = rows.iter().map(|r| times(r.label.clone(), r)).collect();
    table(title, &header("algorithm", settings), &lines)
}

/// The min/max writes (reads) table: each row's cells with the fewest
/// and the most writes (first of equals).
fn extremes<'r>(title: &str, rows: impl IntoIterator<Item = &'r Row>) -> String {
    let cell = |m: &Measurement| format!("{} ({})", fmt_millions(m.writes), fmt_millions(m.reads));
    let lines: Vec<Vec<String>> = rows
        .into_iter()
        .filter_map(|r| {
            let measured = || r.cells.iter().flatten();
            let min = measured().reduce(|b, m| if m.writes < b.writes { m } else { b })?;
            let max = measured().reduce(|w, m| if m.writes > w.writes { m } else { w })?;
            Some(vec![r.label.clone(), cell(min), cell(max)])
        })
        .collect();
    table(
        title,
        &["algorithm", "min writes (reads)", "max writes (reads)"],
        &lines,
    )
}

/// The winner map of one line-up on one layer: after a blank line, a
/// line per swept setting naming the rows with the least unrounded
/// simulated time.
fn winners(figure: &str, layer: LayerKind, settings: &[String], rows: &[Row]) -> String {
    let mut out = String::from("\n");
    for (i, setting) in settings.iter().enumerate() {
        let best = rows
            .iter()
            .filter_map(|r| r.cells[i])
            .map(|m| m.secs)
            .min_by(f64::total_cmp);
        let names: Vec<&str> = rows
            .iter()
            .filter(|r| r.cells[i].is_some_and(|m| Some(m.secs) == best))
            .map(|r| r.label.as_str())
            .collect();
        let names = if names.is_empty() {
            "n/a".to_string()
        } else {
            names.join(" = ")
        };
        out += &format!(
            "winner | {figure} | {} | {setting} | {names}\n",
            layer.label()
        );
    }
    out
}

/// Table 1: the analytic progression of standard vs. lazy hash join —
/// reads/writes per iteration and the lazy savings/penalty — followed by
/// measured end-to-end counters for both algorithms.
pub fn table1(scale: &Scale, threads: usize) -> String {
    // m = 8 iterations, each row in units of (M + M_T).
    let rows: Vec<Vec<String>> = (1..=8u64)
        .map(|i| {
            vec![
                i.to_string(),
                format!("{}·(M+Mt)", 9 - i),
                format!("{}·(M+Mt)", 8 - i),
                "8·(M+Mt)".into(),
                "0".into(),
                format!("{}λr", 8 - i),
                format!("{}r", i - 1),
            ]
        })
        .collect();
    let mut out = table(
        "Table 1: standard vs lazy hash join progression (m = 8)",
        &[
            "iter",
            "std reads",
            "std writes",
            "lazy reads",
            "lazy writes",
            "savings",
            "penalty",
        ],
        &rows,
    );
    let lambda = LatencyProfile::PCM.lambda();
    out += &format!(
        "(corrected Eq. 11 materialization point at λ = {lambda}: iteration ⌊k·λ/(λ+1)⌋ = {})\n",
        ((8.0 * lambda) / (lambda + 1.0)).floor()
    );

    // Measured confirmation at harness scale.
    let at = Setting {
        mem: 0.05,
        seed: 7,
        ..Setting::new(scale, threads)
    };
    let rows: Vec<Vec<String>> = [JoinAlgorithm::HJ, JoinAlgorithm::LaJ]
        .into_iter()
        .filter_map(|algo| {
            let meas = measure(Operator::Join(algo), at)?;
            Some(vec![
                algo.label(),
                fmt_millions(meas.writes),
                fmt_millions(meas.reads),
                fmt3(meas.secs),
            ])
        })
        .collect();
    out += &table(
        "Table 1 (measured, M = 5% of left input)",
        &["algorithm", "writes (M)", "reads (M)", "time (s)"],
        &rows,
    );
    out
}

/// Fig. 2: heatmaps of the hybrid-join cost function Jh(x, y) for
/// |T|/|V| ∈ {1, 10, 100} × λ ∈ {2, 5, 8}.
fn fig2() -> String {
    let mut out = String::from(
        "\n=== Fig. 2: hybrid Grace/NL join cost surface (light ' ' = cheap, '@' = costly) ===\n",
    );
    let v = 100_000.0;
    let m = 2_000.0;
    for lambda in [2.0, 5.0, 8.0] {
        for ratio in [1.0, 10.0, 100.0] {
            let t = v / ratio;
            let surface = join_costs::hybrid_cost_surface(t, v, m, lambda, 20);
            out += &format!("\n|T|/|V| = 1/{ratio}, λ = {lambda}  (x→ right, y↑ up)\n");
            out += &render_heatmap(&surface);
            let (bx, by) = join_costs::optimal_hybrid_xy(t, v, m, lambda);
            out += &format!("grid minimum at x = {bx:.2}, y = {by:.2}\n");
        }
    }
    out
}

/// Fig. 5: sorting response time vs memory size (blocked memory) plus
/// the min/max writes(reads) table.
fn fig5(at: Setting<'_>) -> String {
    let settings = mem_settings(at.scale);
    let rows: Vec<Row> = sort_lineup()
        .into_iter()
        .map(|op| mem_row(op, at))
        .collect();
    let mut out = time_table(
        &format!(
            "Fig. 5: sort response time (s) vs memory, {} records, blocked memory",
            at.scale.sort_n
        ),
        &settings,
        &rows,
    );
    out += &extremes(
        "Fig. 5 (bottom): min/max writes (reads), millions of cachelines",
        &rows,
    );
    out += &winners("Fig. 5", at.layer, &settings, &rows);
    out
}

/// Figs. 6 and 8: a line-up under the four §3.2 persistence layers, a
/// table per algorithm.
fn across_layers(figure: &str, lineup: &[Operator], at: Setting<'_>) -> String {
    let settings = mem_settings(at.scale);
    let by_layer: Vec<(LayerKind, Vec<Row>)> = LayerKind::ALL
        .into_iter()
        .map(|layer| {
            let rows = lineup
                .iter()
                .map(|&op| mem_row(op, Setting { layer, ..at }))
                .collect();
            (layer, rows)
        })
        .collect();
    let mut out = String::new();
    for (i, op) in lineup.iter().enumerate() {
        let lines: Vec<Vec<String>> = by_layer
            .iter()
            .map(|(layer, rows)| times(layer.label().to_string(), &rows[i]))
            .collect();
        out += &table(
            &format!("{figure}: {} across persistence layers (s)", op.label()),
            &header("implementation", &settings),
            &lines,
        );
    }
    for (layer, rows) in &by_layer {
        out += &winners(figure, *layer, &settings, rows);
    }
    out
}

/// Fig. 7: join response time vs memory (panels a–d) plus the min/max
/// writes(reads) table.
fn fig7(at: Setting<'_>) -> String {
    let join = |algos: &[JoinAlgorithm]| -> Vec<Operator> {
        algos.iter().copied().map(Operator::Join).collect()
    };
    let panels: Vec<(&str, Vec<Operator>)> = vec![
        ("(a) overall", join_lineup()),
        (
            "(b) HybJ vs GJ",
            join(&[
                JoinAlgorithm::GJ,
                JoinAlgorithm::HybJ { x: 0.2, y: 0.8 },
                JoinAlgorithm::HybJ { x: 0.5, y: 0.5 },
                JoinAlgorithm::HybJ { x: 0.8, y: 0.2 },
            ]),
        ),
        (
            "(c) SegJ vs GJ",
            join(&[
                JoinAlgorithm::GJ,
                JoinAlgorithm::SegJ { frac: 0.2 },
                JoinAlgorithm::SegJ { frac: 0.5 },
                JoinAlgorithm::SegJ { frac: 0.8 },
            ]),
        ),
        (
            "(d) LaJ vs HJ, GJ",
            join(&[JoinAlgorithm::HJ, JoinAlgorithm::GJ, JoinAlgorithm::LaJ]),
        ),
    ];
    let settings = mem_settings(at.scale);
    let panels: Vec<(String, Vec<Row>)> = panels
        .into_iter()
        .map(|(panel, lineup)| {
            let rows = lineup.into_iter().map(|op| mem_row(op, at)).collect();
            (format!("Fig. 7 {panel}"), rows)
        })
        .collect();
    let mut out = String::new();
    for (figure, rows) in &panels {
        out += &time_table(
            &format!(
                "{figure}: join time (s) vs memory, |T| = {}, |V| = {}",
                at.scale.join_t,
                at.scale.join_t * at.scale.join_fanout
            ),
            &settings,
            rows,
        );
    }
    let mut seen = std::collections::HashSet::new();
    out += &extremes(
        "Fig. 7 (bottom): min/max writes (reads), millions of cachelines",
        panels
            .iter()
            .flat_map(|(_, rows)| rows)
            .filter(|r| seen.insert(r.label.clone())),
    );
    for (figure, rows) in &panels {
        out += &winners(figure, at.layer, &settings, rows);
    }
    out
}

fn intensity_settings(scale: &Scale) -> Vec<String> {
    scale
        .intensities
        .iter()
        .map(|x| format!("{:.0}%", x * 100.0))
        .collect()
}

/// Fig. 9: impact of write intensity on SegS and HybS, all four layers,
/// at a fixed mid-sweep memory size.
fn fig9(at: Setting<'_>) -> String {
    type Maker = fn(f64) -> SortAlgorithm;
    let makers: [(&str, Maker); 2] = [
        ("HybS", |x| SortAlgorithm::HybS { x }),
        ("SegS", |x| SortAlgorithm::SegS { x }),
    ];
    let by_layer: Vec<(LayerKind, Vec<Row>)> = LayerKind::ALL
        .into_iter()
        .map(|layer| {
            let rows = makers
                .iter()
                .map(|(name, make)| {
                    row(
                        (*name).to_string(),
                        at.scale
                            .intensities
                            .iter()
                            .map(|&x| (Operator::Sort(make(x)), Setting { layer, ..at })),
                    )
                })
                .collect();
            (layer, rows)
        })
        .collect();
    let settings = intensity_settings(at.scale);
    let lines: Vec<Vec<String>> = by_layer
        .iter()
        .flat_map(|(layer, rows)| {
            rows.iter()
                .map(|r| times(format!("{}, {}", r.label, layer.label()), r))
        })
        .collect();
    let mut out = table(
        &format!(
            "Fig. 9: sort write-intensity sweep (s), M = {:.1}% of input",
            at.mem * 100.0
        ),
        &header("algorithm, layer", &settings),
        &lines,
    );
    for (layer, rows) in &by_layer {
        out += &winners("Fig. 9", *layer, &settings, rows);
    }
    out
}

/// Fig. 10: impact of write intensity on SegJ and HybJ (blocked memory).
fn fig10(at: Setting<'_>) -> String {
    let sweep = |label: String, make: &dyn Fn(f64) -> JoinAlgorithm| {
        row(
            label,
            at.scale
                .intensities
                .iter()
                .map(|&x| (Operator::Join(make(x)), at)),
        )
    };
    let mut rows = vec![sweep("SegJ".into(), &|frac| JoinAlgorithm::SegJ { frac })];
    for fixed in [0.2, 0.5, 0.8] {
        let pct = fixed * 100.0;
        rows.push(sweep(format!("HybJ, x - {pct:.0}%"), &|x| {
            JoinAlgorithm::HybJ { x, y: fixed }
        }));
        rows.push(sweep(format!("HybJ, {pct:.0}% - x"), &|y| {
            JoinAlgorithm::HybJ { x: fixed, y }
        }));
    }
    let settings = intensity_settings(at.scale);
    let mut out = time_table(
        &format!(
            "Fig. 10: join write-intensity sweep (s), M = {:.1}% of left",
            at.mem * 100.0
        ),
        &settings,
        &rows,
    );
    out += &winners("Fig. 10", at.layer, &settings, &rows);
    out
}

/// Fig. 11: write-latency sensitivity of selected sort and join
/// algorithms (blocked memory, ≤50% intensity).
fn fig11(at: Setting<'_>) -> String {
    let latency_row = |op: Operator| {
        row(
            op.label(),
            at.scale.write_latencies.iter().map(|&write_ns| {
                let latency = LatencyProfile {
                    read_ns: 10.0,
                    write_ns,
                };
                (op, Setting { latency, ..at })
            }),
        )
    };
    let sorts: Vec<Row> = [
        SortAlgorithm::LaS,
        SortAlgorithm::HybS { x: 0.2 },
        SortAlgorithm::HybS { x: 0.5 },
        SortAlgorithm::SegS { x: 0.2 },
        SortAlgorithm::SegS { x: 0.5 },
    ]
    .into_iter()
    .map(|algo| latency_row(Operator::Sort(algo)))
    .collect();
    let joins: Vec<Row> = [
        JoinAlgorithm::HybJ { x: 0.5, y: 0.2 },
        JoinAlgorithm::HybJ { x: 0.5, y: 0.5 },
        JoinAlgorithm::SegJ { frac: 0.2 },
        JoinAlgorithm::SegJ { frac: 0.5 },
        JoinAlgorithm::LaJ,
    ]
    .into_iter()
    .map(|algo| latency_row(Operator::Join(algo)))
    .collect();
    let settings: Vec<String> = at
        .scale
        .write_latencies
        .iter()
        .map(|w| format!("{w:.0}ns"))
        .collect();
    let mut out = time_table(
        "Fig. 11 (left): sort time (s) vs write latency",
        &settings,
        &sorts,
    );
    out += &time_table(
        "Fig. 11 (right): join time (s) vs write latency",
        &settings,
        &joins,
    );
    out += &winners("Fig. 11 (left)", at.layer, &settings, &sorts);
    out += &winners("Fig. 11 (right)", at.layer, &settings, &joins);
    out
}

/// Fig. 12: Kendall's-τ concordance between estimated and measured
/// rankings, for all algorithms and for the write-limited subset.
fn fig12(at: Setting<'_>) -> String {
    let scale = at.scale;
    let lambda = at.latency.lambda();
    let sorts = [
        SortAlgorithm::ExMS,
        SortAlgorithm::SegS { x: 0.2 },
        SortAlgorithm::SegS { x: 0.5 },
        SortAlgorithm::SegS { x: 0.8 },
        SortAlgorithm::HybS { x: 0.2 },
        SortAlgorithm::HybS { x: 0.5 },
        SortAlgorithm::HybS { x: 0.8 },
    ]
    .map(Operator::Sort);
    let joins = [
        JoinAlgorithm::GJ,
        JoinAlgorithm::HJ,
        JoinAlgorithm::NLJ,
        JoinAlgorithm::HybJ { x: 0.5, y: 0.5 },
        JoinAlgorithm::HybJ { x: 0.8, y: 0.2 },
        JoinAlgorithm::SegJ { frac: 0.2 },
        JoinAlgorithm::SegJ { frac: 0.5 },
        JoinAlgorithm::SegJ { frac: 0.8 },
    ]
    .map(Operator::Join);
    let write_limited = |op: &Operator| {
        matches!(
            op,
            Operator::Sort(SortAlgorithm::SegS { .. } | SortAlgorithm::HybS { .. })
                | Operator::Join(JoinAlgorithm::HybJ { .. } | JoinAlgorithm::SegJ { .. })
        )
    };
    let tau = |pairs: &[(f64, f64)]| {
        let (est, meas): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
        kendall_tau(&est, &meas)
            .map(fmt3)
            .unwrap_or_else(|| "n/a".into())
    };

    let sort_buffers = (scale.sort_n * 80).div_ceil(64) as f64;
    let t_buf = (scale.join_t * 80).div_ceil(64) as f64;
    let v_buf = t_buf * scale.join_fanout as f64;
    let mut rows = Vec::new();
    for &mem in &scale.mem_fractions {
        let at = Setting { mem, ..at };
        let estimate = |op: &Operator| match op {
            Operator::Sort(algo) => {
                predict_sort_io(algo, sort_buffers, sort_buffers * mem, lambda).cost_units(lambda)
            }
            Operator::Join(algo) => {
                predict_join_io(algo, t_buf, v_buf, t_buf * mem).cost_units(lambda)
            }
            Operator::AdaptiveJoin => unreachable!("not in Fig. 12's line-up"),
        };
        let mut row = vec![format!("{:.1}%", mem * 100.0)];
        for lineup in [&sorts[..], &joins[..]] {
            // (estimated, measured) of every algorithm that ran, and of
            // the write-limited ones among them.
            let mut all = Vec::new();
            let mut wl = Vec::new();
            for op in lineup {
                if let Some(m) = measure(*op, at) {
                    all.push((estimate(op), m.secs));
                    if write_limited(op) {
                        wl.push((estimate(op), m.secs));
                    }
                }
            }
            row.extend([tau(&all), tau(&wl)]);
        }
        rows.push(row);
    }
    table(
        "Fig. 12: Kendall's τ, estimated vs measured ranking",
        &[
            "memory",
            "sort (all)",
            "sort (WL)",
            "join (all)",
            "join (WL)",
        ],
        &rows,
    )
}
