//! Plan-level concordance: does the planner's predicted cost rank whole
//! query plans the way the simulator measures them? A plan-granularity
//! extension of the paper's Fig. 12 experiment, driven through the
//! `wl-db` facade the same way a client session would.
//!
//! For the canonical filter → join → aggregate query, the harness
//! sweeps the write/read ratio λ and the DRAM fraction; in every cell
//! it builds a database at that λ, binds the query through a session,
//! executes the winning plan, and records predicted vs measured cost
//! units. The report prints each cell's ratio plus Kendall's τ between
//! the predicted and measured cost across all cells — high τ means the
//! planner's cross-setting ranking is sound.
//!
//! Every cell plans and runs at DoP 1: the planner costs partitioned
//! joins for the degree it will fan out to, so at another degree some
//! cells choose a different join.

use crate::scale::Scale;
use planner::{render_label, Node};
use wisconsin::join_input;
use wl_db::Database;
use write_limited::stats::kendall_tau;

/// One measured cell of the plan-concordance sweep.
#[derive(Clone, Debug)]
pub struct PlanCell {
    /// Write/read ratio of the cell's device.
    pub lambda: f64,
    /// DRAM fraction of the build input.
    pub mem_fraction: f64,
    /// Label of the join algorithm the planner chose.
    pub chosen_join: String,
    /// Predicted plan cost in read units.
    pub predicted_units: f64,
    /// Measured plan cost in read units.
    pub measured_units: f64,
}

/// Runs the sweep and returns the cells.
pub fn run_plan_concordance(scale: &Scale) -> Vec<PlanCell> {
    let t = scale.join_t.min(20_000); // planning sweep stays snappy
    let fanout = scale.join_fanout;
    let lambdas = [1.0, 2.0, 5.0, 15.0, 20.0];
    let mut cells = Vec::new();

    for &mem_fraction in &scale.mem_fractions {
        for &lambda in &lambdas {
            let db = Database::builder()
                .lambda(lambda)
                .threads(1)
                .dram_budget((t as f64 * 80.0 * mem_fraction) as usize)
                .build();
            let w = join_input(t, fanout, 42);
            db.register_table("t", w.left, t).expect("fresh table");
            db.register_table("v", w.right, t).expect("fresh table");

            let session = db.session();
            let sql = format!(
                "SELECT * FROM t JOIN v ON t.key = v.key WHERE t.key < {} GROUP BY key",
                t / 2
            );
            let Ok(mut stream) = session.query(&sql) else {
                continue; // no applicable plan at this budget — skip, as the paper's plots do
            };
            if stream.drain().is_err() {
                continue;
            }
            let planned = stream.planned();
            let chosen_join = planned
                .choices
                .iter()
                .find(|c| matches!(c.node, Node::Join { .. }))
                .and_then(|c| Some(render_label(&c.node, &c.candidates.first()?.what)))
                .unwrap_or_default();
            let predicted_units = planned.predicted.cost_units(lambda);
            let stats = stream.stats().expect("drained");
            cells.push(PlanCell {
                lambda,
                mem_fraction,
                chosen_join,
                predicted_units,
                measured_units: stats.io.cl_reads as f64 + lambda * stats.io.cl_writes as f64,
            });
        }
    }
    cells
}

/// Renders the sweep: a line per cell, then Kendall τ across cells.
pub fn plan_concordance(scale: &Scale) -> String {
    let mut out = format!(
        "=== Plan-level concordance (Fig. 12 extension): σ(T) ⋈ V → γ ===\n\
         {:>6} {:>6}  {:<28} {:>14} {:>14} {:>7}\n",
        "λ", "M/|T|", "chosen join", "predicted", "measured", "ratio"
    );
    let cells = run_plan_concordance(scale);
    for c in &cells {
        out += &format!(
            "{:>6} {:>6.3}  {:<28} {:>14.0} {:>14.0} {:>7.2}\n",
            c.lambda,
            c.mem_fraction,
            c.chosen_join,
            c.predicted_units,
            c.measured_units,
            c.predicted_units / c.measured_units
        );
    }
    let predicted: Vec<f64> = cells.iter().map(|c| c.predicted_units).collect();
    let measured: Vec<f64> = cells.iter().map(|c| c.measured_units).collect();
    out += &match kendall_tau(&predicted, &measured) {
        Some(tau) => format!("\nKendall τ (predicted vs measured across cells): {tau:.3}\n"),
        None => "\nKendall τ undefined (too few cells)\n".to_string(),
    };
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_cells_and_high_concordance() {
        let scale = Scale {
            join_t: 4_000,
            join_fanout: 5,
            mem_fractions: vec![0.05, 0.10],
            ..Scale::quick()
        };
        let cells = run_plan_concordance(&scale);
        assert!(cells.len() >= 8, "most cells must plan and run");
        for c in &cells {
            let ratio = c.predicted_units / c.measured_units;
            assert!(
                (0.2..5.0).contains(&ratio),
                "λ={} M={}: ratio {ratio}",
                c.lambda,
                c.mem_fraction
            );
        }
        let predicted: Vec<f64> = cells.iter().map(|c| c.predicted_units).collect();
        let measured: Vec<f64> = cells.iter().map(|c| c.measured_units).collect();
        let tau = kendall_tau(&predicted, &measured).expect("enough cells");
        assert!(tau >= 0.6, "plan-level concordance collapsed: τ = {tau}");
    }
}
