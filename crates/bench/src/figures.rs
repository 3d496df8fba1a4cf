//! One function per table/figure of the paper's evaluation. Each prints
//! the same rows/series the paper reports, from freshly simulated runs.

use crate::measure::{run_join, run_sort, Measurement};
use crate::scale::Scale;
use crate::table::{fmt3, fmt_millions, print_table, render_heatmap};
use pmem_sim::{LatencyProfile, LayerKind};
use write_limited::cost::{estimate_join, estimate_sort, join_costs};
use write_limited::join::JoinAlgorithm;
use write_limited::sort::SortAlgorithm;
use write_limited::stats::kendall_tau;

/// The sort line-up of Fig. 5/6.
fn sort_lineup() -> Vec<SortAlgorithm> {
    vec![
        SortAlgorithm::ExMS,
        SortAlgorithm::LaS,
        SortAlgorithm::HybS { x: 0.2 },
        SortAlgorithm::HybS { x: 0.8 },
        SortAlgorithm::SegS { x: 0.2 },
        SortAlgorithm::SegS { x: 0.8 },
    ]
}

/// The join line-up of Fig. 7(a)/8.
fn join_lineup() -> Vec<JoinAlgorithm> {
    vec![
        JoinAlgorithm::NLJ,
        JoinAlgorithm::HJ,
        JoinAlgorithm::GJ,
        JoinAlgorithm::LaJ,
        JoinAlgorithm::SegJ { frac: 0.5 },
        JoinAlgorithm::HybJ { x: 0.5, y: 0.5 },
    ]
}

fn mem_header(scale: &Scale) -> Vec<String> {
    std::iter::once("algorithm".to_string())
        .chain(
            scale
                .mem_fractions
                .iter()
                .map(|f| format!("M={:.1}%", f * 100.0)),
        )
        .collect()
}

fn cell(m: Option<Measurement>) -> String {
    m.map(|m| fmt3(m.secs)).unwrap_or_else(|| "n/a".into())
}

/// Table 1: the analytic progression of standard vs. lazy hash join —
/// reads/writes per iteration and the lazy savings/penalty — followed by
/// measured end-to-end counters for both algorithms.
pub fn table1(scale: &Scale) {
    let lambda = LatencyProfile::PCM.lambda();
    let m = 8.0f64; // illustrative iteration count, as in the paper's table
    let unit = 1.0; // (M + M_T) normalized
    let mut rows = Vec::new();
    for i in 1..=m as u64 {
        let i_f = i as f64;
        rows.push(vec![
            i.to_string(),
            format!("{:.0}·(M+Mt)", (m - i_f + 1.0) * unit),
            format!("{:.0}·(M+Mt)", (m - i_f) * unit),
            format!("{:.0}·(M+Mt)", m * unit),
            "0".to_string(),
            format!("{:.0}λr", (m - i_f) * unit),
            format!("{:.0}r", (i_f - 1.0) * unit),
        ]);
    }
    print_table(
        "Table 1: standard vs lazy hash join progression (m = 8)",
        &[
            "iter".into(),
            "std reads".into(),
            "std writes".into(),
            "lazy reads".into(),
            "lazy writes".into(),
            "savings".into(),
            "penalty".into(),
        ],
        &rows,
    );
    println!(
        "(corrected Eq. 11 materialization point at λ = {lambda}: iteration ⌊k·λ/(λ+1)⌋ = {})",
        ((m * lambda) / (lambda + 1.0)).floor()
    );

    // Measured confirmation at harness scale.
    let mut rows = Vec::new();
    for algo in [JoinAlgorithm::HJ, JoinAlgorithm::LaJ] {
        if let Some(meas) = run_join(
            algo,
            LayerKind::BlockedMemory,
            scale.join_t,
            scale.join_fanout,
            0.05,
            LatencyProfile::PCM,
            7,
        ) {
            rows.push(vec![
                algo.label(),
                fmt_millions(meas.writes),
                fmt_millions(meas.reads),
                fmt3(meas.secs),
            ]);
        }
    }
    print_table(
        "Table 1 (measured, M = 5% of left input)",
        &[
            "algorithm".into(),
            "writes (M)".into(),
            "reads (M)".into(),
            "time (s)".into(),
        ],
        &rows,
    );
}

/// Fig. 2: heatmaps of the hybrid-join cost function Jh(x, y) for
/// |T|/|V| ∈ {1, 10, 100} × λ ∈ {2, 5, 8}.
pub fn fig2() {
    println!(
        "\n=== Fig. 2: hybrid Grace/NL join cost surface (light ' ' = cheap, '@' = costly) ==="
    );
    let v = 100_000.0;
    let m = 2_000.0;
    for lambda in [2.0, 5.0, 8.0] {
        for ratio in [1.0, 10.0, 100.0] {
            let t = v / ratio;
            let surface = join_costs::hybrid_cost_surface(t, v, m, lambda, 20);
            println!("\n|T|/|V| = 1/{ratio}, λ = {lambda}  (x→ right, y↑ up)");
            print!("{}", render_heatmap(&surface));
            let (bx, by) = join_costs::optimal_hybrid_xy(t, v, m, lambda);
            println!("grid minimum at x = {bx:.2}, y = {by:.2}");
        }
    }
}

/// Fig. 5: sorting response time vs memory size (blocked memory) plus
/// the min/max writes(reads) table.
pub fn fig5(scale: &Scale) {
    let mut rows = Vec::new();
    let mut extremes: Vec<(String, Measurement, Measurement)> = Vec::new();
    for algo in sort_lineup() {
        let mut row = vec![algo.label()];
        let mut best: Option<Measurement> = None;
        let mut worst: Option<Measurement> = None;
        for &f in &scale.mem_fractions {
            let m = run_sort(
                algo,
                LayerKind::BlockedMemory,
                scale.sort_n,
                f,
                LatencyProfile::PCM,
                42,
            );
            if let Some(m) = m {
                let bw = best.map_or(u64::MAX, |b| b.writes);
                if m.writes < bw {
                    best = Some(m);
                }
                let ww = worst.map_or(0, |w| w.writes);
                if m.writes > ww {
                    worst = Some(m);
                }
            }
            row.push(cell(m));
        }
        rows.push(row);
        if let (Some(b), Some(w)) = (best, worst) {
            extremes.push((algo.label(), b, w));
        }
    }
    print_table(
        &format!(
            "Fig. 5: sort response time (s) vs memory, {} records, blocked memory",
            scale.sort_n
        ),
        &mem_header(scale),
        &rows,
    );

    let rows: Vec<Vec<String>> = extremes
        .iter()
        .map(|(label, min, max)| {
            vec![
                label.clone(),
                format!("{} ({})", fmt_millions(min.writes), fmt_millions(min.reads)),
                format!("{} ({})", fmt_millions(max.writes), fmt_millions(max.reads)),
            ]
        })
        .collect();
    print_table(
        "Fig. 5 (bottom): min/max writes (reads), millions of cachelines",
        &[
            "algorithm".into(),
            "min writes (reads)".into(),
            "max writes (reads)".into(),
        ],
        &rows,
    );
}

/// Fig. 6: sorting under the four §3.2 persistence layers.
pub fn fig6(scale: &Scale) {
    for algo in sort_lineup() {
        let mut rows = Vec::new();
        for layer in LayerKind::ALL {
            let mut row = vec![layer.label().to_string()];
            for &f in &scale.mem_fractions {
                row.push(cell(run_sort(
                    algo,
                    layer,
                    scale.sort_n,
                    f,
                    LatencyProfile::PCM,
                    42,
                )));
            }
            rows.push(row);
        }
        let mut header = mem_header(scale);
        header[0] = "implementation".into();
        print_table(
            &format!("Fig. 6: {} across persistence layers (s)", algo.label()),
            &header,
            &rows,
        );
    }
}

/// Fig. 7: join response time vs memory (panels a–d) plus the min/max
/// writes(reads) table.
pub fn fig7(scale: &Scale) {
    let panels: Vec<(&str, Vec<JoinAlgorithm>)> = vec![
        ("(a) overall", join_lineup()),
        (
            "(b) HybJ vs GJ",
            vec![
                JoinAlgorithm::GJ,
                JoinAlgorithm::HybJ { x: 0.2, y: 0.8 },
                JoinAlgorithm::HybJ { x: 0.5, y: 0.5 },
                JoinAlgorithm::HybJ { x: 0.8, y: 0.2 },
            ],
        ),
        (
            "(c) SegJ vs GJ",
            vec![
                JoinAlgorithm::GJ,
                JoinAlgorithm::SegJ { frac: 0.2 },
                JoinAlgorithm::SegJ { frac: 0.5 },
                JoinAlgorithm::SegJ { frac: 0.8 },
            ],
        ),
        (
            "(d) LaJ vs HJ, GJ",
            vec![JoinAlgorithm::HJ, JoinAlgorithm::GJ, JoinAlgorithm::LaJ],
        ),
    ];
    let mut extreme_rows = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (panel, algos) in panels {
        let mut rows = Vec::new();
        for algo in &algos {
            let mut row = vec![algo.label()];
            let mut best: Option<Measurement> = None;
            let mut worst: Option<Measurement> = None;
            for &f in &scale.mem_fractions {
                let m = run_join(
                    *algo,
                    LayerKind::BlockedMemory,
                    scale.join_t,
                    scale.join_fanout,
                    f,
                    LatencyProfile::PCM,
                    42,
                );
                if let Some(m) = m {
                    if best.is_none_or(|b| m.writes < b.writes) {
                        best = Some(m);
                    }
                    if worst.is_none_or(|w| m.writes > w.writes) {
                        worst = Some(m);
                    }
                }
                row.push(cell(m));
            }
            rows.push(row);
            if seen.insert(algo.label()) {
                if let (Some(b), Some(w)) = (best, worst) {
                    extreme_rows.push(vec![
                        algo.label(),
                        format!("{} ({})", fmt_millions(b.writes), fmt_millions(b.reads)),
                        format!("{} ({})", fmt_millions(w.writes), fmt_millions(w.reads)),
                    ]);
                }
            }
        }
        print_table(
            &format!(
                "Fig. 7 {panel}: join time (s) vs memory, |T| = {}, |V| = {}",
                scale.join_t,
                scale.join_t * scale.join_fanout
            ),
            &mem_header(scale),
            &rows,
        );
    }
    print_table(
        "Fig. 7 (bottom): min/max writes (reads), millions of cachelines",
        &[
            "algorithm".into(),
            "min writes (reads)".into(),
            "max writes (reads)".into(),
        ],
        &extreme_rows,
    );
}

/// Fig. 8: joins under the four §3.2 persistence layers.
pub fn fig8(scale: &Scale) {
    for algo in join_lineup() {
        let mut rows = Vec::new();
        for layer in LayerKind::ALL {
            let mut row = vec![layer.label().to_string()];
            for &f in &scale.mem_fractions {
                row.push(cell(run_join(
                    algo,
                    layer,
                    scale.join_t,
                    scale.join_fanout,
                    f,
                    LatencyProfile::PCM,
                    42,
                )));
            }
            rows.push(row);
        }
        let mut header = mem_header(scale);
        header[0] = "implementation".into();
        print_table(
            &format!("Fig. 8: {} across persistence layers (s)", algo.label()),
            &header,
            &rows,
        );
    }
}

/// Fig. 9: impact of write intensity on SegS and HybS, all four layers,
/// at a fixed mid-sweep memory size.
pub fn fig9(scale: &Scale) {
    type Maker = fn(f64) -> SortAlgorithm;
    let mem = scale.mem_fractions[scale.mem_fractions.len() / 2];
    let mut rows = Vec::new();
    let makers: [(&str, Maker); 2] = [
        ("HybS", |x| SortAlgorithm::HybS { x }),
        ("SegS", |x| SortAlgorithm::SegS { x }),
    ];
    for layer in LayerKind::ALL {
        for (name, make) in makers {
            let mut row = vec![format!("{name}, {}", layer.label())];
            for &x in &scale.intensities {
                row.push(cell(run_sort(
                    make(x),
                    layer,
                    scale.sort_n,
                    mem,
                    LatencyProfile::PCM,
                    42,
                )));
            }
            rows.push(row);
        }
    }
    let header: Vec<String> = std::iter::once("algorithm, layer".to_string())
        .chain(
            scale
                .intensities
                .iter()
                .map(|x| format!("{:.0}%", x * 100.0)),
        )
        .collect();
    print_table(
        &format!(
            "Fig. 9: sort write-intensity sweep (s), M = {:.1}% of input",
            mem * 100.0
        ),
        &header,
        &rows,
    );
}

/// Fig. 10: impact of write intensity on SegJ and HybJ (blocked memory).
pub fn fig10(scale: &Scale) {
    let mem = scale.mem_fractions[scale.mem_fractions.len() / 2];
    let mut rows = Vec::new();

    let mut seg_row = vec!["SegJ".to_string()];
    for &x in &scale.intensities {
        seg_row.push(cell(run_join(
            JoinAlgorithm::SegJ { frac: x },
            LayerKind::BlockedMemory,
            scale.join_t,
            scale.join_fanout,
            mem,
            LatencyProfile::PCM,
            42,
        )));
    }
    rows.push(seg_row);

    for &fixed in &[0.2, 0.5, 0.8] {
        let mut row = vec![format!("HybJ, x - {:.0}%", fixed * 100.0)];
        for &x in &scale.intensities {
            row.push(cell(run_join(
                JoinAlgorithm::HybJ { x, y: fixed },
                LayerKind::BlockedMemory,
                scale.join_t,
                scale.join_fanout,
                mem,
                LatencyProfile::PCM,
                42,
            )));
        }
        rows.push(row);
        let mut row = vec![format!("HybJ, {:.0}% - x", fixed * 100.0)];
        for &y in &scale.intensities {
            row.push(cell(run_join(
                JoinAlgorithm::HybJ { x: fixed, y },
                LayerKind::BlockedMemory,
                scale.join_t,
                scale.join_fanout,
                mem,
                LatencyProfile::PCM,
                42,
            )));
        }
        rows.push(row);
    }
    let header: Vec<String> = std::iter::once("algorithm".to_string())
        .chain(
            scale
                .intensities
                .iter()
                .map(|x| format!("{:.0}%", x * 100.0)),
        )
        .collect();
    print_table(
        &format!(
            "Fig. 10: join write-intensity sweep (s), M = {:.1}% of left",
            mem * 100.0
        ),
        &header,
        &rows,
    );
}

/// Fig. 11: write-latency sensitivity of selected sort and join
/// algorithms (blocked memory, ≤50% intensity).
pub fn fig11(scale: &Scale) {
    let mem = scale.mem_fractions[scale.mem_fractions.len() / 2];
    let sorts = [
        SortAlgorithm::LaS,
        SortAlgorithm::HybS { x: 0.2 },
        SortAlgorithm::HybS { x: 0.5 },
        SortAlgorithm::SegS { x: 0.2 },
        SortAlgorithm::SegS { x: 0.5 },
    ];
    let mut rows = Vec::new();
    for algo in sorts {
        let mut row = vec![algo.label()];
        for &w in &scale.write_latencies {
            let latency = LatencyProfile {
                read_ns: 10.0,
                write_ns: w,
            };
            row.push(cell(run_sort(
                algo,
                LayerKind::BlockedMemory,
                scale.sort_n,
                mem,
                latency,
                42,
            )));
        }
        rows.push(row);
    }
    let header: Vec<String> = std::iter::once("algorithm".to_string())
        .chain(scale.write_latencies.iter().map(|w| format!("{w:.0}ns")))
        .collect();
    print_table(
        "Fig. 11 (left): sort time (s) vs write latency",
        &header,
        &rows,
    );

    let joins = [
        JoinAlgorithm::HybJ { x: 0.5, y: 0.2 },
        JoinAlgorithm::HybJ { x: 0.5, y: 0.5 },
        JoinAlgorithm::SegJ { frac: 0.2 },
        JoinAlgorithm::SegJ { frac: 0.5 },
        JoinAlgorithm::LaJ,
    ];
    let mut rows = Vec::new();
    for algo in joins {
        let mut row = vec![algo.label()];
        for &w in &scale.write_latencies {
            let latency = LatencyProfile {
                read_ns: 10.0,
                write_ns: w,
            };
            row.push(cell(run_join(
                algo,
                LayerKind::BlockedMemory,
                scale.join_t,
                scale.join_fanout,
                mem,
                latency,
                42,
            )));
        }
        rows.push(row);
    }
    print_table(
        "Fig. 11 (right): join time (s) vs write latency",
        &header,
        &rows,
    );
}

/// Fig. 12: Kendall's-τ concordance between estimated and measured
/// rankings, for all algorithms and for the write-limited subset.
pub fn fig12(scale: &Scale) {
    let lambda = LatencyProfile::PCM.lambda();
    let sort_all: Vec<SortAlgorithm> = vec![
        SortAlgorithm::ExMS,
        SortAlgorithm::SegS { x: 0.2 },
        SortAlgorithm::SegS { x: 0.5 },
        SortAlgorithm::SegS { x: 0.8 },
        SortAlgorithm::HybS { x: 0.2 },
        SortAlgorithm::HybS { x: 0.5 },
        SortAlgorithm::HybS { x: 0.8 },
    ];
    let join_all: Vec<JoinAlgorithm> = vec![
        JoinAlgorithm::GJ,
        JoinAlgorithm::HJ,
        JoinAlgorithm::NLJ,
        JoinAlgorithm::HybJ { x: 0.5, y: 0.5 },
        JoinAlgorithm::HybJ { x: 0.8, y: 0.2 },
        JoinAlgorithm::SegJ { frac: 0.2 },
        JoinAlgorithm::SegJ { frac: 0.5 },
        JoinAlgorithm::SegJ { frac: 0.8 },
    ];

    let sort_buffers = (scale.sort_n * 80).div_ceil(64) as f64;
    let t_buf = (scale.join_t * 80).div_ceil(64) as f64;
    let v_buf = t_buf * scale.join_fanout as f64;

    let mut rows = Vec::new();
    for &f in &scale.mem_fractions {
        let m_sort = sort_buffers * f;
        let m_join = t_buf * f;

        let tau = |est: &[f64], meas: &[f64]| {
            kendall_tau(est, meas)
                .map(fmt3)
                .unwrap_or_else(|| "n/a".into())
        };

        // Sorting: estimated vs measured, all and write-limited-only.
        let mut est = Vec::new();
        let mut meas = Vec::new();
        for algo in &sort_all {
            if let Some(m) = run_sort(
                *algo,
                LayerKind::BlockedMemory,
                scale.sort_n,
                f,
                LatencyProfile::PCM,
                42,
            ) {
                est.push(estimate_sort(algo, sort_buffers, m_sort, lambda));
                meas.push(m.secs);
            }
        }
        let sort_all_tau = tau(&est, &meas);
        let sort_wl_tau = tau(&est[1..], &meas[1..]); // drop ExMS

        let mut est = Vec::new();
        let mut meas = Vec::new();
        let mut wl_est = Vec::new();
        let mut wl_meas = Vec::new();
        for algo in &join_all {
            if let Some(m) = run_join(
                *algo,
                LayerKind::BlockedMemory,
                scale.join_t,
                scale.join_fanout,
                f,
                LatencyProfile::PCM,
                42,
            ) {
                let e = estimate_join(algo, t_buf, v_buf, m_join, lambda);
                est.push(e);
                meas.push(m.secs);
                if matches!(
                    algo,
                    JoinAlgorithm::HybJ { .. } | JoinAlgorithm::SegJ { .. }
                ) {
                    wl_est.push(e);
                    wl_meas.push(m.secs);
                }
            }
        }
        rows.push(vec![
            format!("{:.1}%", f * 100.0),
            sort_all_tau,
            sort_wl_tau,
            tau(&est, &meas),
            tau(&wl_est, &wl_meas),
        ]);
    }
    print_table(
        "Fig. 12: Kendall's τ, estimated vs measured ranking",
        &[
            "memory".into(),
            "sort (all)".into(),
            "sort (WL)".into(),
            "join (all)".into(),
            "join (WL)".into(),
        ],
        &rows,
    );
}
