//! Generated SQL statements against the naive oracle, with a shrinker.
//!
//! A seeded generator draws `SELECT` and `EXPLAIN` statements over
//! empty, one-row, uniform, Zipf and full-width (`u64`-wide keys)
//! tables on the blocked-memory, RAM-disk and dynamic-array layers:
//! filters with `<`, `>=` and `%`, empty and inverted ranges, literals
//! at `0` and `u64::MAX`, self-joins through `AS`, 2–8-way chains and
//! stars, `GROUP BY`, `ORDER BY`, `LIMIT`, and `SET memory` down to a
//! few blocks. A second family draws filtered joins over tables of 2–10
//! rows at budgets of 2–4 records, where the planner's and the engine's
//! DRAM capacities are a fraction of a record apart. Every statement is
//! checked three ways:
//!
//! - its rows equal `execute_naive` over the bound plan (under `LIMIT`,
//!   a sub-multiset of the right size, and the smallest keys when
//!   ordered);
//! - the plan it ran charges identical counters at DoP 1 and 4 and with
//!   profiling on and off, and every run yields the oracle's rows;
//! - whatever fails, fails as a typed error — never a panic — and a
//!   statement the planner accepted never fails for want of memory: a
//!   plan the engine refuses with `InsufficientMemory` is a divergence
//!   between the two, not a refusal.
//!
//! A failing statement is shrunk before it is reported — drop a
//! relation, drop a predicate, halve a table, move a literal toward 0
//! until it sits at the edge it fails at — so the report is a statement
//! small enough to become a regression test.

use planner::{execute_naive, execute_stream, execute_stream_profiled, ExecError, PlannedQuery};
use pmem_sim::{BufferPool, LayerKind, PmError, Storable};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use wisconsin::{Record, WisconsinRecord};
use wl_db::{bind, parse, Database, DbError, Response, Statement};
use wl_tests::SplitMix;

/// Statements one run of [`generated_statements_agree_with_the_oracle`]
/// draws from [`draw`], and from [`draw_tight`].
const STATEMENTS: u64 = 150;
const TIGHT_STATEMENTS: u64 = 60;
const LAYERS: [LayerKind; 3] = [
    LayerKind::BlockedMemory,
    LayerKind::RamDisk,
    LayerKind::DynArray,
];
/// Joined rows a statement may produce: the generator halves its
/// largest table until the exact join count is below this.
const MAX_JOIN_ROWS: u64 = 6_000;

/// One stored table: its keys in stored order and the catalog's key
/// domain.
#[derive(Clone, Debug)]
struct Table {
    keys: Vec<u64>,
    domain: u64,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Form {
    Below(u64),
    AtLeast(u64),
    ModEq(u64, u64),
}

/// A `WHERE` conjunct: on relation `on` (`r{on}.key`), or on the join
/// output (`key`) when `None`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Pred {
    on: Option<usize>,
    form: Form,
}

impl Pred {
    fn holds(&self, key: u64) -> bool {
        match self.form {
            Form::Below(b) => key < b,
            Form::AtLeast(b) => key >= b,
            Form::ModEq(m, r) => m != 0 && key % m == r,
        }
    }
}

/// One generated statement and the database it runs against.
#[derive(Clone, Debug)]
struct Case {
    layer: LayerKind,
    /// `SET memory`, in records.
    memory: u64,
    tables: Vec<Table>,
    /// Relation `i` scans `t{rels[i]}` as `r{i}`; a table named twice is
    /// a self-join.
    rels: Vec<usize>,
    /// Every `ON` names `r0` (a star) or the previous relation (a chain).
    star: bool,
    preds: Vec<Pred>,
    group: bool,
    order: bool,
    limit: Option<u64>,
    explain: bool,
}

impl Case {
    fn sql(&self) -> String {
        let mut sql = format!("SELECT * FROM t{} AS r0", self.rels[0]);
        for (i, t) in self.rels.iter().enumerate().skip(1) {
            let anchor = if self.star { 0 } else { i - 1 };
            sql += &format!(" JOIN t{t} AS r{i} ON r{anchor}.key = r{i}.key");
        }
        for (i, p) in self.preds.iter().enumerate() {
            sql += if i == 0 { " WHERE " } else { " AND " };
            if let Some(r) = p.on {
                sql += &format!("r{r}.");
            }
            sql += &match p.form {
                Form::Below(b) => format!("key < {b}"),
                Form::AtLeast(b) => format!("key >= {b}"),
                Form::ModEq(m, r) => format!("key % {m} = {r}"),
            };
        }
        if self.group {
            sql += " GROUP BY key";
        }
        if self.order {
            sql += " ORDER BY key";
        }
        if let Some(n) = self.limit {
            sql += &format!(" LIMIT {n}");
        }
        sql
    }

    /// The exact number of joined rows after the filters: per key, the
    /// product of each relation's qualifying multiplicity.
    fn join_rows(&self) -> u64 {
        let counts: Vec<HashMap<u64, u64>> = self
            .rels
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let mut m = HashMap::new();
                for &k in &self.tables[t].keys {
                    if self.preds.iter().all(|p| p.on != Some(i) || p.holds(k)) {
                        *m.entry(k).or_insert(0u64) += 1;
                    }
                }
                m
            })
            .collect();
        counts[0]
            .iter()
            .filter(|(&k, _)| self.preds.iter().all(|p| p.on.is_some() || p.holds(k)))
            .map(|(k, &c)| {
                counts[1..]
                    .iter()
                    .fold(c, |acc, m| acc.saturating_mul(*m.get(k).unwrap_or(&0)))
            })
            .fold(0u64, u64::saturating_add)
    }
}

/// A drawn literal around the domain `d`: its edges, its middle, the
/// ends of `u64`, or anything in it.
fn literal(rng: &mut SplitMix, d: u64) -> u64 {
    match rng.below(8) {
        0 => 0,
        1 => 1,
        2 => d / 2,
        3 => d,
        4 => d.saturating_add(1),
        5 => u64::MAX,
        6 => u64::MAX - 1,
        _ => rng.below(d.saturating_add(1).max(1)),
    }
}

fn draw_table(rng: &mut SplitMix) -> Table {
    match rng.below(10) {
        0 => Table {
            keys: Vec::new(),
            domain: rng.pick(&[0, 1, 100]),
        },
        1 => {
            let key = rng.pick(&[0, 7, u64::MAX]);
            Table {
                keys: vec![key],
                domain: key.saturating_add(1),
            }
        }
        2 | 3 => {
            let rows = 1 + rng.below(1_200);
            let keys = wisconsin::skewed_input(rows, 4, 1.2, rng.next_u64())
                .iter()
                .map(Record::key)
                .collect();
            Table {
                keys,
                domain: (rows / 4).max(1),
            }
        }
        4 => {
            // Keys anywhere in u64, a few repeated.
            let rows = 1 + rng.below(200);
            let mut keys: Vec<u64> = (0..rows).map(|_| rng.next_u64()).collect();
            for i in 0..keys.len() / 8 {
                keys[i * 8] = keys[i];
            }
            Table {
                keys,
                domain: u64::MAX,
            }
        }
        _ => {
            let rows = 1 + rng.below(1_200);
            let copies = rng.pick(&[1, 1, 2, 4]);
            let domain = (rows / copies).max(1);
            let mut keys: Vec<u64> = (0..rows).map(|i| i % domain).collect();
            for i in (1..keys.len()).rev() {
                keys.swap(i, rng.below(i as u64 + 1) as usize);
            }
            Table { keys, domain }
        }
    }
}

/// One statement, fully drawn from `seed`.
fn draw(seed: u64) -> Case {
    let mut rng = SplitMix(seed);
    let layer = rng.pick(&LAYERS);
    let memory = rng.pick(&[2, 13, 26, 40, 300, 5_000]);
    let tables: Vec<Table> = (0..1 + rng.below(4))
        .map(|_| draw_table(&mut rng))
        .collect();
    let n = match rng.below(4) {
        0 => 1,
        1 => 2,
        2 => 3 + rng.below(2) as usize,
        _ => 2 + rng.below(7) as usize,
    };
    let rels: Vec<usize> = (0..n)
        .map(|_| rng.below(tables.len() as u64) as usize)
        .collect();
    let mut preds = Vec::new();
    for _ in 0..rng.below(4) {
        let on = match rng.below(3) {
            0 => None,
            _ => Some(rng.below(n as u64) as usize),
        };
        let d = on.map_or(1_000, |r| tables[rels[r]].domain);
        match rng.below(5) {
            0 => preds.push(Pred {
                on,
                form: Form::Below(literal(&mut rng, d)),
            }),
            1 => preds.push(Pred {
                on,
                form: Form::AtLeast(literal(&mut rng, d)),
            }),
            2 => {
                let m = rng.pick(&[1, 2, 3, 7, 64, u64::MAX, 0]);
                let r = match rng.below(3) {
                    0 => 0,
                    1 => m.saturating_sub(1),
                    _ => rng.below(m.max(1)),
                };
                preds.push(Pred {
                    on,
                    form: Form::ModEq(m, r),
                });
            }
            // An inverted (or, when the literals tie, empty) range.
            _ => {
                let (lo, hi) = (literal(&mut rng, d), literal(&mut rng, d));
                preds.push(Pred {
                    on,
                    form: Form::AtLeast(lo.max(hi)),
                });
                preds.push(Pred {
                    on,
                    form: Form::Below(lo.min(hi)),
                });
            }
        }
    }
    let mut case = Case {
        layer,
        memory,
        tables,
        rels,
        star: rng.below(2) == 0,
        preds,
        group: rng.below(4) == 0,
        order: rng.below(3) == 0,
        limit: match rng.below(5) {
            0 => Some(rng.pick(&[0, 1, 5, 100])),
            _ => None,
        },
        explain: rng.below(5) == 0,
    };
    // Keep the oracle's join small: halve the largest table in use.
    while case.join_rows() > MAX_JOIN_ROWS {
        let t = *case
            .rels
            .iter()
            .max_by_key(|&&t| case.tables[t].keys.len())
            .expect("a relation");
        let keep = case.tables[t].keys.len() / 2;
        case.tables[t].keys.truncate(keep);
    }
    case
}

/// A filtered join over two or three tables of 2–10 rows at a budget of
/// 2–4 records. A budget of `r` records is `80·r` bytes, which rounds up
/// to whole cachelines; the engine floors it back to `r` records. Grace
/// applicability `M > √(1.2·|T|)` and the §3.1 partition count change
/// within that fraction of a record exactly at these sizes.
fn draw_tight(seed: u64) -> Case {
    let mut rng = SplitMix(seed);
    let layer = rng.pick(&LAYERS);
    let memory = 2 + rng.below(3);
    let tables: Vec<Table> = (0..2)
        .map(|_| {
            let rows = 2 + rng.below(9);
            let copies = rng.pick(&[1, 1, 2]);
            let domain = (rows / copies).max(1);
            let mut keys: Vec<u64> = (0..rows).map(|i| i % domain).collect();
            for i in (1..keys.len()).rev() {
                keys.swap(i, rng.below(i as u64 + 1) as usize);
            }
            Table { keys, domain }
        })
        .collect();
    let n = 2 + rng.below(2) as usize;
    let rels: Vec<usize> = (0..n)
        .map(|i| if i < 2 { i } else { rng.below(2) as usize })
        .collect();
    let on = rng.below(n as u64) as usize;
    let d = tables[rels[on]].domain;
    let form = match rng.below(3) {
        0 => Form::Below(1 + rng.below(d.max(1))),
        1 => Form::AtLeast(rng.below(d.max(1))),
        _ => Form::ModEq(2, rng.below(2)),
    };
    Case {
        layer,
        memory,
        tables,
        rels,
        star: rng.below(2) == 0,
        preds: vec![Pred { on: Some(on), form }],
        group: false,
        order: false,
        limit: None,
        explain: rng.below(5) == 0,
    }
}

/// How a statement that passed its checks ended.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// It ran, and its rows and counters checked out.
    Ran,
    /// It was refused with a typed error.
    Refused,
}

/// Runs every check on `case`; `Err` says what failed.
fn check(case: &Case) -> Result<Outcome, String> {
    match catch_unwind(AssertUnwindSafe(|| run(case))) {
        Ok(result) => result,
        Err(panic) => {
            let what = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            Err(format!("panicked: {what}"))
        }
    }
}

/// How a statement that failed after it was planned ended: a typed
/// refusal, unless the engine refused for want of memory a plan the
/// planner costed under the same budget.
fn refused_in_execution(e: &DbError) -> Result<Outcome, String> {
    match e {
        DbError::Exec(ExecError::Pm(PmError::InsufficientMemory { .. })) => {
            Err(format!("planned, then refused in execution: {e}"))
        }
        _ => Ok(Outcome::Refused),
    }
}

fn run(case: &Case) -> Result<Outcome, String> {
    let db = Database::builder().layer(case.layer).build();
    for (i, t) in case.tables.iter().enumerate() {
        let records = t
            .keys
            .iter()
            .enumerate()
            .map(|(j, &k)| WisconsinRecord::from_key(k).with_payload(j as u64));
        db.register_table(&format!("t{i}"), records, t.domain)
            .map_err(|e| format!("register t{i}: {e}"))?;
    }
    let mut session = db.session();
    for set in [
        "SET threads = 1".to_string(),
        format!("SET memory = {}", case.memory),
    ] {
        session.execute(&set).map_err(|e| format!("{set}: {e}"))?;
    }
    let sql = case.sql();
    if case.explain {
        match session.execute(&format!("EXPLAIN {sql}")) {
            Ok(Response::Explain(mut stream)) => {
                if let Err(e) = stream.drain() {
                    return refused_in_execution(&e);
                }
                let report = stream.explain();
                if !report.contains("chosen plan") {
                    return Err(format!("EXPLAIN renders no plan:\n{report}"));
                }
            }
            Ok(other) => return Err(format!("EXPLAIN answered {other:?}")),
            Err(_) => return Ok(Outcome::Refused),
        }
    }
    let Ok(mut stream) = session.query(&sql) else {
        return Ok(Outcome::Refused);
    };
    let mut got = Vec::new();
    loop {
        match stream.next_batch() {
            Ok(Some(batch)) => got.extend(batch.rows),
            Ok(None) => break,
            Err(e) => return refused_in_execution(&e),
        }
    }

    let catalog = db.catalog();
    let Ok(Statement::Select(select)) = parse(&sql) else {
        return Err("the statement does not parse as a SELECT".into());
    };
    let bound = bind(&select, &catalog).map_err(|e| format!("binds: {e}"))?;
    let oracle = execute_naive(&bound.logical, &catalog)
        .map_err(|e| format!("the oracle fails where the engine ran: {e}"))?
        .canonical_wide();
    check_rows(case, got, &oracle)?;

    // The plan that ran, at DoP 1 and 4 and profiled: the oracle's rows
    // every time, and the same counters, to the picosecond, wherever
    // the same plan ran. A mid-run re-plan ranks at the DoP the plan
    // says it was costed for, so it may choose differently at DoP 4:
    // the DoP pair is compared with re-planning off as well.
    let planned = stream.planned().clone();
    let pool = BufferPool::new(case.memory as usize * WisconsinRecord::SIZE);
    let mut runs = Vec::new();
    for (threads, adapt, profiled) in [
        (1, true, false),
        (1, true, true),
        (4, true, false),
        (1, false, false),
        (4, false, false),
    ] {
        let plan = PlannedQuery {
            threads,
            adapt: adapt && planned.adapt,
            ..planned.clone()
        };
        let exec = if profiled {
            execute_stream_profiled
        } else {
            execute_stream
        };
        let what = format!("DoP {threads}, re-planning {adapt}, profiled {profiled}");
        let run = exec(&plan, &catalog, db.device(), case.layer, &pool)
            .map_err(|e| format!("{what}: the plan the session ran fails: {e}"))?;
        if run.result.all_rows().canonical_wide() != oracle {
            return Err(format!("{what}: rows differ from the oracle"));
        }
        let ran = run.adapted.map(|a| a.plan.describe());
        runs.push((what, ran, run.stats));
    }
    for (a, b) in [(0, 1), (0, 2), (3, 4)] {
        let ((what_a, ran_a, io_a), (what_b, ran_b, io_b)) = (&runs[a], &runs[b]);
        if ran_a == ran_b && io_a != io_b {
            return Err(format!(
                "counters differ: {what_a} {io_a:?}, {what_b} {io_b:?}"
            ));
        }
    }
    Ok(Outcome::Ran)
}

/// The session's rows against the oracle's canonical rows.
fn check_rows(case: &Case, mut got: Vec<Vec<u64>>, oracle: &[Vec<u64>]) -> Result<(), String> {
    let Some(limit) = case.limit else {
        got.sort_unstable();
        return match got == oracle {
            true => Ok(()),
            false => Err(format!(
                "{} rows, the oracle {}: rows differ",
                got.len(),
                oracle.len()
            )),
        };
    };
    let want = oracle.len().min(limit as usize);
    if got.len() != want {
        return Err(format!("LIMIT {limit}: {} rows, want {want}", got.len()));
    }
    if case.order {
        let keys: Vec<u64> = got.iter().map(|r| r[0]).collect();
        let mut smallest: Vec<u64> = oracle.iter().map(|r| r[0]).collect();
        smallest.sort_unstable();
        smallest.truncate(want);
        if keys != smallest {
            return Err(format!(
                "LIMIT {limit} ORDER BY key: keys are not the smallest in order"
            ));
        }
    }
    let mut pool: HashMap<&[u64], usize> = HashMap::new();
    for row in oracle {
        *pool.entry(row).or_insert(0) += 1;
    }
    for row in &got {
        match pool.get_mut(row.as_slice()) {
            Some(n) if *n > 0 => *n -= 1,
            _ => return Err(format!("LIMIT {limit}: row {row:?} is not the oracle's")),
        }
    }
    Ok(())
}

/// Smaller statements than `case`, one step each: drop a relation,
/// drop a predicate, halve a table, move a literal toward 0, drop a
/// clause. Every step shrinks the statement, so shrinking ends.
fn shrink_steps(case: &Case) -> Vec<Case> {
    let mut out = Vec::new();
    if case.rels.len() > 1 {
        for drop in 0..case.rels.len() {
            let mut c = case.clone();
            c.rels.remove(drop);
            c.preds.retain(|p| p.on != Some(drop));
            for p in &mut c.preds {
                p.on = p.on.map(|r| if r > drop { r - 1 } else { r });
            }
            out.push(c);
        }
    }
    for drop in 0..case.preds.len() {
        let mut c = case.clone();
        c.preds.remove(drop);
        out.push(c);
    }
    for t in 0..case.tables.len() {
        if !case.tables[t].keys.is_empty() {
            let mut c = case.clone();
            let keep = c.tables[t].keys.len() / 2;
            c.tables[t].keys.truncate(keep);
            out.push(c);
        }
    }
    for (i, p) in case.preds.iter().enumerate() {
        let (Form::Below(b) | Form::AtLeast(b)) = p.form else {
            continue;
        };
        // Toward 0, the longest move first: 0, then b − b/2, b − b/4, …,
        // b − 1 — repeated, the literal settles at the edge it fails at.
        let moves = std::iter::once(b).chain((1..64).map(|k| b >> k).filter(|&d| d > 0));
        for moved in moves
            .map(|d| b - d)
            .collect::<std::collections::BTreeSet<_>>()
        {
            let mut c = case.clone();
            c.preds[i].form = match p.form {
                Form::Below(_) => Form::Below(moved),
                _ => Form::AtLeast(moved),
            };
            out.push(c);
        }
    }
    let clauses: [fn(&mut Case) -> bool; 4] = [
        |c| std::mem::take(&mut c.group),
        |c| std::mem::take(&mut c.order),
        |c| c.limit.take().is_some(),
        |c| std::mem::take(&mut c.explain),
    ];
    for clear in clauses {
        let mut c = case.clone();
        if clear(&mut c) {
            out.push(c);
        }
    }
    out
}

/// Greedy shrinking: take the first smaller statement that still
/// fails, until none does.
fn shrink(mut case: Case, fails: impl Fn(&Case) -> bool) -> Case {
    'smaller: loop {
        for smaller in shrink_steps(&case) {
            if fails(&smaller) {
                case = smaller;
                continue 'smaller;
            }
        }
        return case;
    }
}

#[test]
fn generated_statements_agree_with_the_oracle() {
    let mut seeds = SplitMix(0x5E1E_C7ED);
    // Refusals of the `draw` and the `draw_tight` statements, held to
    // their own bounds.
    let (mut refused, mut tight_refused) = (0, 0);
    for i in 0..STATEMENTS + TIGHT_STATEMENTS {
        let seed = seeds.next_u64();
        let tight = i >= STATEMENTS;
        let case = if tight { draw_tight(seed) } else { draw(seed) };
        match check(&case) {
            Ok(Outcome::Ran) => {}
            Ok(Outcome::Refused) if tight => tight_refused += 1,
            Ok(Outcome::Refused) => refused += 1,
            Err(why) => {
                let small = shrink(case, |c| check(c).is_err());
                panic!(
                    "statement {i} (seed {seed:#x}) fails: {why}\nshrunk to {:?} on {:?} \
                     at memory {}: {}\n{small:#?}",
                    small.sql(),
                    small.layer,
                    small.memory,
                    check(&small).unwrap_err(),
                );
            }
        }
    }
    assert!(
        refused * 5 < STATEMENTS,
        "{refused} of {STATEMENTS} statements refused: the generator mostly draws errors"
    );
    assert!(
        tight_refused * 5 < TIGHT_STATEMENTS,
        "{tight_refused} of {TIGHT_STATEMENTS} tight statements refused: the family mostly \
         draws errors"
    );
}

/// The generator is only evidence for the shapes it draws.
#[test]
fn the_generator_reaches_every_shape() {
    let mut seeds = SplitMix(0x5E1E_C7ED);
    let cases: Vec<Case> = (0..STATEMENTS).map(|_| draw(seeds.next_u64())).collect();
    // The tight family follows in the same seed stream; it is counted
    // on its own, so it never stands in for a shape `draw` stops
    // drawing.
    let tight: Vec<Case> = (0..TIGHT_STATEMENTS)
        .map(|_| draw_tight(seeds.next_u64()))
        .collect();
    let count = |f: &dyn Fn(&Case) -> bool| cases.iter().filter(|c| f(c)).count();
    let tight_filtered_join = |c: &Case| {
        c.rels.len() >= 2
            && (2..=4).contains(&c.memory)
            && !c.preds.is_empty()
            && c.rels
                .iter()
                .all(|&t| (2..=10).contains(&c.tables[t].keys.len()))
    };
    let tight_joins = tight.iter().filter(|c| tight_filtered_join(c)).count();
    assert!(
        tight_joins >= 40,
        "filtered joins of 2-10 rows at 2-4 records: {tight_joins} of {TIGHT_STATEMENTS} \
         tight statements, want at least 40"
    );
    let self_join = |c: &Case| (1..c.rels.len()).any(|i| c.rels[..i].contains(&c.rels[i]));
    let literal = |c: &Case, v: u64| {
        c.preds
            .iter()
            .any(|p| matches!(p.form, Form::Below(b) | Form::AtLeast(b) if b == v))
    };
    let inverted = |c: &Case| {
        c.preds.windows(2).any(|w| match (w[0].form, w[1].form) {
            (Form::AtLeast(hi), Form::Below(lo)) => w[0].on == w[1].on && lo <= hi,
            _ => false,
        })
    };
    for (what, n, at_least) in [
        ("one relation", count(&|c| c.rels.len() == 1), 10),
        ("two-way joins", count(&|c| c.rels.len() == 2), 10),
        ("3-8-way joins", count(&|c| c.rels.len() >= 3), 30),
        ("8-way joins", count(&|c| c.rels.len() == 8), 3),
        ("stars", count(&|c| c.star && c.rels.len() >= 3), 10),
        ("chains", count(&|c| !c.star && c.rels.len() >= 3), 10),
        ("self-joins", count(&self_join), 10),
        (
            "an empty table",
            count(&|c| c.rels.iter().any(|&t| c.tables[t].keys.is_empty())),
            10,
        ),
        (
            "a one-row table",
            count(&|c| c.rels.iter().any(|&t| c.tables[t].keys.len() == 1)),
            10,
        ),
        ("a literal 0", count(&|c| literal(c, 0)), 5),
        ("a literal u64::MAX", count(&|c| literal(c, u64::MAX)), 5),
        (
            "% filters",
            count(&|c| c.preds.iter().any(|p| matches!(p.form, Form::ModEq(..)))),
            10,
        ),
        ("inverted ranges", count(&inverted), 5),
        ("GROUP BY", count(&|c| c.group), 10),
        ("ORDER BY", count(&|c| c.order), 10),
        ("LIMIT", count(&|c| c.limit.is_some()), 10),
        ("EXPLAIN", count(&|c| c.explain), 10),
        ("a budget of a few blocks", count(&|c| c.memory <= 40), 30),
    ] {
        assert!(
            n >= at_least,
            "{what}: {n} statements, want at least {at_least}"
        );
    }
    for layer in LAYERS {
        assert!(count(&|c| c.layer == layer) >= 30, "{layer:?}");
    }
}

/// The shrinker on a synthetic failure: a statement fails when it
/// filters a relation of ten rows or more below 1 000 or more.
/// Whatever it starts from, it ends at one relation, one predicate and
/// a literal at the failing edge.
#[test]
fn the_shrinker_reaches_the_failing_edge() {
    let fails = |c: &Case| {
        c.preds.iter().any(|p| match (p.on, p.form) {
            (Some(r), Form::Below(b)) => b >= 1_000 && c.tables[c.rels[r]].keys.len() >= 10,
            _ => false,
        })
    };
    let mut seeds = SplitMix(7);
    let mut shrunk = 0;
    for _ in 0..200 {
        let case = draw(seeds.next_u64());
        if !fails(&case) {
            continue;
        }
        let small = shrink(case, fails);
        assert!(fails(&small));
        assert_eq!(small.rels.len(), 1, "{small:?}");
        assert_eq!(small.preds.len(), 1, "{small:?}");
        assert_eq!(small.preds[0].form, Form::Below(1_000), "{small:?}");
        let rows = small.tables[small.rels[0]].keys.len();
        assert!((10..20).contains(&rows), "{rows} rows");
        assert!(!small.group && !small.order && small.limit.is_none() && !small.explain);
        shrunk += 1;
    }
    assert!(shrunk >= 5, "only {shrunk} failing draws");
}
