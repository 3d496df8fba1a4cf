//! Cost-based planning of a composed query, driven entirely through the
//! `wl-db` facade:
//!
//! ```sql
//! SELECT key, count, sum
//! FROM   t JOIN v ON t.key = v.key
//! WHERE  t.key < 5000        -- pushed below the join
//! GROUP  BY key
//! ```
//!
//! The session parses the SQL, the planner enumerates every applicable
//! sort/join algorithm and knob, costs them with the paper's Eqs. 1–11
//! under the device's λ, runs the winner over counted collections,
//! and the result streams back with predicted vs measured cacheline
//! traffic. Running the same query on a device with symmetric write
//! latency changes the chosen plan — the paper's core claim, at plan
//! granularity.
//!
//! ```text
//! cargo run -p wl-examples --example query_plan
//! ```

use planner::{render_label, Node};
use wl_db::Database;

fn plan_and_run(lambda: f64) -> String {
    let db = Database::builder()
        .lambda(lambda)
        // M small enough that the build side takes several passes — the
        // regime where the write/read ratio decides between partitioning
        // (write-heavy, few passes) and iterating (read-heavy, no writes).
        .dram_records(1_000)
        .build();
    let mut session = db.session();
    session
        .execute("CREATE TABLE t AS WISCONSIN(10_000, 1, 5)")
        .expect("t loads");
    session
        .execute("CREATE TABLE v AS WISCONSIN(10_000, 10, 5)")
        .expect("v loads");

    let mut stream = session
        .query(
            "SELECT key, count, sum FROM t JOIN v ON t.key = v.key \
             WHERE t.key < 5_000 GROUP BY key",
        )
        .expect("query plans");
    let rows = stream.drain().expect("query runs");
    assert_eq!(rows, 5_000, "one group per surviving key");

    println!("=== λ = {lambda} ===");
    print!("{}", stream.explain());
    println!();

    // The join choice is what the λ sweep steers; return its label.
    stream
        .planned()
        .choices
        .iter()
        .find(|c| matches!(c.node, Node::Join { .. }))
        .and_then(|c| Some(render_label(&c.node, &c.candidates.first()?.what)))
        .unwrap_or_default()
}

fn main() {
    // The paper's PCM profile (λ = 15) vs a symmetric medium (λ = 1):
    // same query, same data, different winning plan.
    let at_pcm = plan_and_run(15.0);
    let at_symmetric = plan_and_run(1.0);
    println!("chosen join at λ=15: {at_pcm}");
    println!("chosen join at λ=1:  {at_symmetric}");
    assert_ne!(
        at_pcm, at_symmetric,
        "the write/read ratio must steer the plan choice"
    );
    println!("\nwrite latency changed the plan — the §4.2.3 knob optimizer, lifted to plans");
}
