//! Integration tests for the `wl-db` facade: golden parse trees for
//! every supported clause, span-carrying error paths, and end-to-end
//! agreement between SQL sessions and the naive DRAM executor —
//! including multi-way join queries, self-join aliases, empty tables,
//! and LIMIT short-circuits.

use planner::{execute_naive, LogicalPlan, Predicate};
use wl_db::{bind, parse, Database, DbError, Response, Statement};

// ---------- golden parse trees, one per supported clause ----------

#[test]
fn golden_parse_trees_cover_every_clause() {
    let cases: &[(&str, &str)] = &[
        (
            "CREATE TABLE t AS WISCONSIN(10_000);",
            "create t as wisconsin(rows=10000, fanout=1, seed=42)\n",
        ),
        (
            "CREATE TABLE v AS WISCONSIN(1000, 4, 7);",
            "create v as wisconsin(rows=1000, fanout=4, seed=7)\n",
        ),
        ("DROP TABLE t;", "drop t\n"),
        ("SHOW TABLES;", "show tables\n"),
        ("SET threads = 8;", "set threads = 8\n"),
        (
            "SELECT * FROM t;",
            "select\n  project *\n  from t\n",
        ),
        (
            "SELECT key, payload FROM t WHERE key < 100;",
            "select\n  project key, payload\n  from t\n  where key < 100\n",
        ),
        (
            "SELECT * FROM t WHERE key >= 10 AND key % 3 = 1;",
            "select\n  project *\n  from t\n  where key >= 10\n  where key % 3 = 1\n",
        ),
        (
            "SELECT * FROM t INNER JOIN v ON t.key = v.key;",
            "select\n  project *\n  from t\n  join v on t.key = v.key\n",
        ),
        (
            "SELECT * FROM t GROUP BY key;",
            "select\n  project *\n  from t\n  group by key\n",
        ),
        (
            "SELECT * FROM t ORDER BY key LIMIT 5;",
            "select\n  project *\n  from t\n  order by key\n  limit 5\n",
        ),
        (
            "EXPLAIN SELECT * FROM t JOIN v ON t.key = v.key GROUP BY key ORDER BY key;",
            "explain select\n  project *\n  from t\n  join v on t.key = v.key\n  group by key\n  order by key\n",
        ),
        (
            "SELECT * FROM t JOIN v ON t.key = v.key JOIN w ON v.key = w.key;",
            "select\n  project *\n  from t\n  join v on t.key = v.key\n  join w on v.key = w.key\n",
        ),
        (
            "SELECT t.payload, u.payload FROM t JOIN t AS u ON t.key = u.key;",
            "select\n  project t.payload, u.payload\n  from t\n  join t as u on t.key = u.key\n",
        ),
        (
            "SELECT * FROM t AS x WHERE x.key < 9;",
            "select\n  project *\n  from t as x\n  where x.key < 9\n",
        ),
        ("CREATE TABLE e AS WISCONSIN(0);", "create e as wisconsin(rows=0, fanout=1, seed=42)\n"),
    ];
    for (sql, golden) in cases {
        let stmt = parse(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(&stmt.describe(), golden, "golden tree for {sql}");
    }
}

// ---------- error paths with spans ----------

#[test]
fn error_paths_carry_spans_into_the_source() {
    let db = Database::builder().build();
    db.create_wisconsin("t", 100, 1, 1).expect("fresh");
    let mut session = db.session();

    // Unknown table: binder error, span on the table name.
    let sql = "SELECT * FROM nosuch";
    let DbError::Sql(e) = session.execute(sql).unwrap_err() else {
        panic!("expected SQL error")
    };
    assert_eq!(e.message, "unknown table \"nosuch\"");
    assert_eq!(&sql[e.span.start..e.span.end], "nosuch");
    assert!(e.render(sql).contains("^^^^^^"), "caret under the span");

    // Type mismatch: parser error, span on the string literal.
    let sql = "SELECT * FROM t WHERE key < 'ten'";
    let DbError::Sql(e) = session.execute(sql).unwrap_err() else {
        panic!("expected SQL error")
    };
    assert!(e.message.contains("type mismatch"), "{}", e.message);
    assert_eq!(&sql[e.span.start..e.span.end], "'ten'");

    // Trailing tokens: parser error, span from the first extra token.
    let sql = "SHOW TABLES extra stuff";
    let DbError::Sql(e) = session.execute(sql).unwrap_err() else {
        panic!("expected SQL error")
    };
    assert!(e.message.contains("trailing tokens"), "{}", e.message);
    assert_eq!(&sql[e.span.start..e.span.end], "extra stuff");
}

// ---------- end-to-end: SQL sessions vs the naive executor ----------

#[test]
fn sql_results_agree_with_the_naive_executor() {
    let db = Database::builder().dram_records(150).batch_rows(33).build();
    db.create_wisconsin("t", 700, 1, 11).expect("fresh");
    db.create_wisconsin("v", 700, 3, 11).expect("fresh");
    let catalog = db.catalog();
    let session = db.session();

    let cases: &[(&str, LogicalPlan)] = &[
        (
            "SELECT * FROM t WHERE key < 300 ORDER BY key",
            LogicalPlan::scan("t")
                .filter(Predicate::KeyBelow(300))
                .sort(),
        ),
        (
            "SELECT * FROM t JOIN v ON t.key = v.key WHERE t.key % 2 = 0",
            LogicalPlan::scan("t")
                .filter(Predicate::KeyModEq {
                    modulus: 2,
                    residue: 0,
                })
                .join(LogicalPlan::scan("v")),
        ),
        (
            "SELECT * FROM t JOIN v ON t.key = v.key GROUP BY key ORDER BY key",
            LogicalPlan::scan("t")
                .join(LogicalPlan::scan("v"))
                .aggregate()
                .sort(),
        ),
    ];

    for (sql, logical) in cases {
        let mut stream = session.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let mut got: Vec<Vec<u64>> = Vec::new();
        while let Some(batch) = stream.next_batch().expect("streams") {
            assert!(batch.rows.len() <= 33, "batch cap respected");
            got.extend(batch.rows);
        }
        let reference = execute_naive(logical, &catalog).expect("naive evaluates");
        let want = reference.canonical_wide();
        got.sort_unstable();
        assert_eq!(
            got, want,
            "{sql}: session rows diverge from the naive executor"
        );
    }
}

// ---------- multi-way joins through SQL ----------

/// Drains a stream into rows.
fn drain_rows(stream: &mut wl_db::ResultStream) -> Vec<Vec<u64>> {
    let mut rows = Vec::new();
    while let Some(batch) = stream.next_batch().expect("streams") {
        rows.extend(batch.rows);
    }
    rows
}

#[test]
fn three_table_chain_query_matches_the_naive_oracle() {
    let db = Database::builder().dram_records(300).batch_rows(64).build();
    db.create_wisconsin("t", 300, 1, 5).expect("fresh");
    db.create_wisconsin("v", 300, 2, 5).expect("fresh");
    db.create_wisconsin("w", 300, 3, 5).expect("fresh");
    let session = db.session();

    let sql = "SELECT * FROM t JOIN v ON t.key = v.key JOIN w ON v.key = w.key \
               WHERE t.key < 100";
    let mut stream = session.query(sql).expect("plans");
    assert_eq!(
        stream.columns(),
        ["key", "t.payload", "v.payload", "w.payload"]
    );
    let mut got = drain_rows(&mut stream);
    got.sort_unstable();
    assert_eq!(got.len(), 100 * 2 * 3, "fanout product under the filter");

    let Statement::Select(select) = parse(sql).expect("parses") else {
        panic!("expected select")
    };
    let bound = bind(&select, &db.catalog()).expect("binds");
    let reference = execute_naive(&bound.logical, &db.catalog()).expect("naive evaluates");
    assert_eq!(got, reference.canonical_wide());
}

/// The planner sizes its DRAM tests by the records the engine's floored
/// budget holds. A budget of 3 records is 240 bytes, four cachelines:
/// the planner used to take M as 4 · 64 / 80 = 3.2 records, plan the
/// deferred-σ join (3.2 > √(1.2 · 8) = 3.098), and the engine, holding
/// M = 3 records, refused to run it. Two records under 4-row tables
/// failed the same way.
#[test]
fn filtered_joins_plan_within_the_records_the_engine_holds() {
    for (records, rows) in [(3, 8), (2, 4)] {
        let db = Database::builder().dram_records(records).build();
        let mut session = db.session();
        for name in ["a", "b"] {
            session
                .execute(&format!("CREATE TABLE {name} AS WISCONSIN({rows})"))
                .expect("creates");
        }
        let sql = "SELECT * FROM a JOIN b ON a.key = b.key WHERE a.key < 5";
        let mut stream = session.query(sql).expect("plans");
        let mut got = Vec::new();
        loop {
            match stream.next_batch() {
                Ok(Some(batch)) => got.extend(batch.rows),
                Ok(None) => break,
                Err(e) => panic!("{records} records, {rows} rows: planned, then {e}"),
            }
        }
        got.sort_unstable();
        let Statement::Select(select) = parse(sql).expect("parses") else {
            panic!("expected select")
        };
        let bound = bind(&select, &db.catalog()).expect("binds");
        let reference = execute_naive(&bound.logical, &db.catalog()).expect("naive evaluates");
        assert_eq!(
            got,
            reference.canonical_wide(),
            "{records} records, {rows} rows"
        );
    }
}

#[test]
fn explain_reports_the_chosen_join_order() {
    let db = Database::builder().dram_records(400).build();
    db.create_wisconsin("t", 200, 1, 1).expect("fresh");
    db.create_wisconsin("v", 2_000, 1, 1).expect("fresh");
    db.create_wisconsin("w", 200, 1, 1).expect("fresh");
    let mut session = db.session();
    let Response::Explain(mut stream) = session
        .execute(
            "EXPLAIN SELECT * FROM t JOIN v ON t.key = v.key JOIN w ON v.key = w.key \
             ORDER BY key",
        )
        .expect("executes")
    else {
        panic!("expected explain");
    };
    stream.drain().expect("runs");
    let report = stream.explain();
    assert!(report.contains("join order over 3 relations"), "{report}");
    assert!(report.contains("⋈"), "{report}");
    // Two per-edge evidence tables and the chain-join plan nodes.
    assert!(report.contains("join ~"), "{report}");
    assert!(report.contains("fold"), "{report}");
    assert!(report.contains("predicted vs measured"), "{report}");
}

// ---------- self-joins and aliases ----------

#[test]
fn self_join_with_alias_round_trips() {
    let db = Database::builder().dram_records(200).build();
    db.create_wisconsin("t", 150, 2, 9).expect("fresh");
    let session = db.session();
    let mut stream = session
        .query("SELECT key, t.payload, u.payload FROM t JOIN t AS u ON t.key = u.key")
        .expect("plans");
    assert_eq!(stream.columns(), ["key", "t.payload", "u.payload"]);
    let rows = drain_rows(&mut stream);
    // fanout 2 on both sides → 4 pairs per key.
    assert_eq!(rows.len(), 150 * 4);
}

#[test]
fn self_join_without_alias_is_a_span_carrying_error() {
    let db = Database::builder().build();
    db.create_wisconsin("t", 50, 1, 1).expect("fresh");
    let session = db.session();
    let sql = "SELECT * FROM t JOIN t ON t.key = t.key";
    let DbError::Sql(e) = session.query(sql).unwrap_err() else {
        panic!("expected SQL error")
    };
    assert!(e.message.contains("duplicate table name"), "{}", e.message);
    assert!(e.message.contains("AS"), "hint at aliasing: {}", e.message);
    assert_eq!(&sql[e.span.start..e.span.end], "t");
    assert_eq!(e.span.start, 21, "span on the second occurrence");
}

#[test]
fn multiway_binder_errors_carry_spans() {
    let db = Database::builder().build();
    db.create_wisconsin("t", 50, 1, 1).expect("fresh");
    db.create_wisconsin("v", 50, 1, 1).expect("fresh");
    db.create_wisconsin("w", 50, 1, 1).expect("fresh");
    let session = db.session();

    // Unknown alias inside a 3-table join condition.
    let sql = "SELECT * FROM t JOIN v ON t.key = v.key JOIN w ON nope.key = w.key";
    let DbError::Sql(e) = session.query(sql).unwrap_err() else {
        panic!("expected SQL error")
    };
    assert!(
        e.message.contains("unknown table reference \"nope\""),
        "{}",
        e.message
    );
    assert!(e.message.contains("in scope: t, v, w"), "{}", e.message);
    assert_eq!(&sql[e.span.start..e.span.end], "nope.key");

    // A join condition that fails to involve the newly joined table.
    let sql = "SELECT * FROM t JOIN v ON t.key = v.key JOIN w ON t.key = v.key";
    let DbError::Sql(e) = session.query(sql).unwrap_err() else {
        panic!("expected SQL error")
    };
    assert!(
        e.message.contains("must involve the joined table \"w\""),
        "{}",
        e.message
    );

    // A join condition referencing a table joined later.
    let sql = "SELECT * FROM t JOIN v ON w.key = v.key JOIN w ON t.key = w.key";
    let DbError::Sql(e) = session.query(sql).unwrap_err() else {
        panic!("expected SQL error")
    };
    assert!(e.message.contains("not yet in scope"), "{}", e.message);

    // Ambiguous unqualified payload across three tables.
    let sql = "SELECT payload FROM t JOIN v ON t.key = v.key JOIN w ON v.key = w.key";
    let DbError::Sql(e) = session.query(sql).unwrap_err() else {
        panic!("expected SQL error")
    };
    assert!(e.message.contains("ambiguous"), "{}", e.message);
    assert!(e.message.contains("w.payload"), "{}", e.message);

    // Unknown qualifier in the projection.
    let sql = "SELECT z.payload FROM t JOIN v ON t.key = v.key JOIN w ON v.key = w.key";
    let DbError::Sql(e) = session.query(sql).unwrap_err() else {
        panic!("expected SQL error")
    };
    assert!(
        e.message.contains("unknown table reference \"z\""),
        "{}",
        e.message
    );
    assert_eq!(&sql[e.span.start..e.span.end], "z");
}

// ---------- empty tables ----------

#[test]
fn empty_tables_flow_through_every_query_shape() {
    let db = Database::builder().dram_records(200).build();
    let mut session = db.session();
    let Response::Created { rows, .. } = session
        .execute("CREATE TABLE e AS WISCONSIN(0)")
        .expect("creates")
    else {
        panic!("expected created");
    };
    assert_eq!(rows, 0);
    db.create_wisconsin("t", 100, 2, 3).expect("fresh");

    for sql in [
        "SELECT * FROM e",
        "SELECT * FROM e WHERE key < 10 ORDER BY key",
        "SELECT * FROM e GROUP BY key",
        "SELECT * FROM e JOIN t ON e.key = t.key",
        "SELECT * FROM t JOIN e ON t.key = e.key",
        "SELECT * FROM e JOIN t ON e.key = t.key GROUP BY key ORDER BY key",
        "SELECT * FROM t JOIN e ON t.key = e.key JOIN t AS u ON e.key = u.key",
    ] {
        let mut stream = session.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let rows = drain_rows(&mut stream);
        assert!(
            rows.is_empty(),
            "{sql}: expected no rows, got {}",
            rows.len()
        );
    }
}

// ---------- LIMIT short-circuits ----------

#[test]
fn limit_zero_never_executes_the_plan() {
    let db = Database::builder().dram_records(200).build();
    db.create_wisconsin("t", 2_000, 1, 7).expect("fresh");
    db.create_wisconsin("v", 2_000, 2, 7).expect("fresh");
    let session = db.session();

    // An expensive join + sort behind LIMIT 0: the first pull must not
    // run it, and the IO ledger must stay at zero.
    let mut stream = session
        .query("SELECT * FROM t JOIN v ON t.key = v.key ORDER BY key LIMIT 0")
        .expect("plans");
    assert!(stream.next_batch().expect("streams").is_none());
    let stats = stream.stats().expect("done");
    assert_eq!(stats.rows, 0);
    assert_eq!(stats.batches, 0);
    assert_eq!(stats.io.cl_reads, 0, "LIMIT 0 must not touch the device");
    assert_eq!(stats.io.cl_writes, 0, "LIMIT 0 must not touch the device");
    // The explain report still shows the plan, but must not present the
    // never-executed run's zeroed ledger as a measurement.
    let report = stream.explain();
    assert!(report.contains("chosen plan"), "{report}");
    assert!(
        !report.contains("predicted vs measured"),
        "no concordance for a run that never happened:\n{report}"
    );

    // A limit smaller than the first batch stops delivery at the limit.
    let mut stream = session
        .query("SELECT * FROM t ORDER BY key LIMIT 3")
        .expect("plans");
    let rows = drain_rows(&mut stream);
    assert_eq!(rows.len(), 3);
    assert_eq!(stream.stats().expect("done").rows, 3);
}

// ---------- lexer and SET range diagnostics ----------

#[test]
fn numeric_overflow_and_zero_knobs_are_span_carrying_errors() {
    let db = Database::builder().build();
    db.create_wisconsin("t", 50, 1, 1).expect("fresh");
    let mut session = db.session();

    // A literal past u64::MAX must error with the literal's span, and
    // the caret rendering must underline exactly it.
    let sql = "SELECT * FROM t WHERE key < 99999999999999999999999";
    let DbError::Sql(e) = session.execute(sql).unwrap_err() else {
        panic!("expected SQL error")
    };
    assert!(e.message.contains("out of range"), "{}", e.message);
    assert_eq!(&sql[e.span.start..e.span.end], "99999999999999999999999");
    let rendered = e.render(sql);
    assert!(
        rendered.contains(&"^".repeat("99999999999999999999999".len())),
        "caret must underline the literal:\n{rendered}"
    );

    // Underscore separators participate in the overflow check.
    let sql = "SET memory = 99_999_999_999_999_999_999_999";
    let DbError::Sql(e) = session.execute(sql).unwrap_err() else {
        panic!("expected SQL error")
    };
    assert!(e.message.contains("out of range"), "{}", e.message);

    // u64::MAX itself lexes; the memory knob reports its own range
    // error instead of panicking on overflow.
    let sql = "SET memory = 18446744073709551615";
    let DbError::Sql(e) = session.execute(sql).unwrap_err() else {
        panic!("expected SQL error")
    };
    assert!(e.message.contains("out of range"), "{}", e.message);

    // Zero knob values error with the value's span.
    for knob in ["threads", "batch", "lambda", "memory"] {
        let sql = format!("SET {knob} = 0");
        let DbError::Sql(e) = session.execute(&sql).unwrap_err() else {
            panic!("expected SQL error for {knob}")
        };
        assert!(
            e.message.contains("positive value"),
            "{knob}: {}",
            e.message
        );
        assert_eq!(&sql[e.span.start..e.span.end], "0", "{knob} span");
        let rendered = e.render(&sql);
        let caret_line = rendered.lines().nth(2).expect("caret line");
        assert_eq!(
            caret_line.trim(),
            "^",
            "caret must sit under the 0:\n{rendered}"
        );
    }
}

// ---------- session knob precedence ----------

#[test]
fn explicit_session_threads_outrank_the_environment() {
    // Whatever WL_THREADS the test process runs under (the CI matrix
    // uses 1 and 4), an explicit SET must win in the planned query.
    let db = Database::builder().build();
    db.create_wisconsin("t", 200, 1, 2).expect("fresh");
    let mut session = db.session();
    session.execute("SET threads = 3").expect("sets");
    let stream = session
        .query("SELECT * FROM t ORDER BY key")
        .expect("plans");
    assert_eq!(stream.planned().threads, 3);
}

// ---------- EXPLAIN through the statement interface ----------

#[test]
fn an_order_by_over_its_group_by_plans_no_sort() {
    let db = Database::builder().dram_records(300).build();
    db.create_wisconsin("t", 1_000, 1, 3).expect("fresh");
    db.create_wisconsin("v", 1_000, 4, 3).expect("fresh");
    let sql = "SELECT * FROM t JOIN v ON t.key = v.key GROUP BY key ORDER BY key";
    let logical = LogicalPlan::scan("t")
        .join(LogicalPlan::scan("v"))
        .aggregate()
        .sort();
    let want = execute_naive(&logical, &db.catalog())
        .expect("naive evaluates")
        .wide_rows();
    for threads in [1, 4] {
        let mut session = db.session();
        session.set_threads(threads);
        let Response::Explain(mut stream) = session
            .execute(&format!("EXPLAIN {sql}"))
            .expect("executes")
        else {
            panic!("expected explain response");
        };
        stream.drain().expect("runs");
        let report = stream.explain();
        assert!(report.contains("aggregate (x ="), "{report}");
        assert!(!report.contains("sort via"), "{report}");
        let mut stream = session.query(sql).expect("runs");
        assert_eq!(drain_rows(&mut stream), want, "DoP {threads}");
    }
}

#[test]
fn explain_streams_no_rows_but_reports_the_plan() {
    let db = Database::builder().build();
    db.create_wisconsin("t", 400, 1, 5).expect("fresh");
    let mut session = db.session();
    let Response::Explain(mut stream) = session
        .execute("EXPLAIN SELECT * FROM t ORDER BY key")
        .expect("executes")
    else {
        panic!("expected explain response");
    };
    stream.drain().expect("runs");
    let report = stream.explain();
    assert!(report.contains("sort via"), "{report}");
    assert!(report.contains("predicted vs measured"), "{report}");
    let Statement::Explain(_) = parse("EXPLAIN SELECT * FROM t").expect("parses") else {
        panic!("expected explain statement");
    };
}
