//! Cost-model-driven join planning, end to end: the Fig. 2 heatmap
//! intuition (Eq. 6 surface), the §4.2.3 informed choice — now made by
//! the plan enumerator over the whole candidate field, reached through
//! the `wl-db` facade — and a measured run of the winning plan.
//!
//! ```text
//! cargo run -p wl-examples --example join_planner
//! ```

use pmem_sim::LatencyProfile;
use wl_db::Database;
use write_limited::cost::join_costs;

fn main() {
    let t_records = 10_000u64;
    let fanout = 10u64;
    let mem_records = (t_records as f64 * 0.05) as usize; // M = 5% of |T|

    let t = (t_records * 80).div_ceil(64) as f64;
    let v = t * fanout as f64;
    let m = t * 0.05;
    let lambda = LatencyProfile::PCM.lambda();

    // Where Eq. 6's surface bottoms out (the Fig. 2 intuition).
    let (bx, by) = join_costs::optimal_hybrid_xy(t, v, m, lambda);
    println!("Eq. 6 grid minimum: x = {bx:.2}, y = {by:.2}");
    let (sx, sy) = join_costs::hybrid_saddle(t, v, m, lambda);
    println!("Eqs. 7–8 saddle point: x_h = {sx:.3}, y_h = {sy:.3} (a saddle, not a minimum)\n");

    // The informed choice, now at plan level behind the facade: the
    // session enumerates every algorithm in both build orders, ranks by
    // the cost models, runs the winner, and streams the matches back.
    let db = Database::builder().dram_records(mem_records).build();
    let mut session = db.session();
    session
        .execute("CREATE TABLE t AS WISCONSIN(10_000, 1, 3)")
        .expect("t loads");
    session
        .execute("CREATE TABLE v AS WISCONSIN(10_000, 10, 3)")
        .expect("v loads");

    let mut stream = session
        .query("SELECT * FROM t JOIN v ON t.key = v.key")
        .expect("query plans");
    let matches = stream.drain().expect("query runs");
    assert_eq!(matches, t_records * fanout);

    let stats = stream.stats().expect("drained");
    println!(
        "measured: {} matches in {:.3}s simulated\n",
        stats.rows, stats.secs
    );
    print!("{}", stream.explain());
}
