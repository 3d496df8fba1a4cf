//! The audit rules: project disciplines no compiler checks, enforced
//! over the token stream with file:line diagnostics.
//!
//! | rule id         | discipline                                                      |
//! |-----------------|-----------------------------------------------------------------|
//! | `counted-io`    | device counters mutate only in `pmem-sim`'s accounting files    |
//! | `ledger-only`   | `Metrics::add_*` charges only in metrics.rs/layer.rs/pages.rs (never in the charge rule); shard merges only in `metrics.rs` |
//! | `uncounted-api` | `*_uncounted` escape hatches only at delivery/checkpoint sites  |
//! | `wal-order`     | append → fsync → apply; no state mutation before the WAL append |
//! | `panic-free`    | no `unwrap`/`expect`/`panic!`/`unreachable!` in recovery zones  |
//! | `span-coverage` | every exec operator module opens `ExecContext::operator`, no bare span |
//! | `inline-codec`  | every `Storable` / `Record` impl method carries `#[inline]`     |
//! | `decode`        | no record decode on the join and sort-kernel byte paths         |
//!
//! Any diagnostic can be suppressed at the site with
//! `// audit:allow(<rule>) <reason>` on the same line or the line above;
//! an allow without a reason is itself a violation (`allow-reason`).

use crate::lexer::{strip_cfg_test, Allow, Lexed, Tok, TokKind};

/// Rule id: counted-I/O discipline.
pub const COUNTED_IO: &str = "counted-io";
/// Rule id: ledger-only hot-path accounting.
pub const LEDGER_ONLY: &str = "ledger-only";
/// Rule id: uncounted-API audit.
pub const UNCOUNTED_API: &str = "uncounted-api";
/// Rule id: WAL append→fsync→apply ordering.
pub const WAL_ORDER: &str = "wal-order";
/// Rule id: panic-free zones.
pub const PANIC_FREE: &str = "panic-free";
/// Rule id: operator span coverage.
pub const SPAN_COVERAGE: &str = "span-coverage";
/// Rule id: record codecs inline across crates.
pub const INLINE_CODEC: &str = "inline-codec";
/// Rule id: record decodes on the operators' byte paths.
pub const DECODE: &str = "decode";
/// Rule id: malformed allow comments.
pub const ALLOW_REASON: &str = "allow-reason";

/// One violation, pointing at a file and 1-based line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Rule id (one of the constants above).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub msg: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Runs every rule over one lexed file and applies the allow comments.
pub fn check(rel: &str, lexed: &Lexed) -> Vec<Diagnostic> {
    let toks = strip_cfg_test(&lexed.toks);
    let mut diags = Vec::new();
    rule_counted_io(rel, &toks, &mut diags);
    rule_ledger_only(rel, &toks, &mut diags);
    rule_uncounted_api(rel, &toks, &mut diags);
    rule_wal_order(rel, &toks, &mut diags);
    rule_panic_free(rel, &toks, &mut diags);
    rule_span_coverage(rel, &toks, &mut diags);
    rule_inline_codec(rel, &toks, &mut diags);
    rule_decode(rel, &toks, &mut diags);
    apply_allows(rel, &lexed.allows, diags)
}

/// True if token `i` is a method call named `name`: `. name (`.
fn is_method_call(toks: &[Tok], i: usize, name: &str) -> bool {
    toks[i].kind == TokKind::Ident
        && toks[i].text == name
        && i > 0
        && toks[i - 1].text == "."
        && toks.get(i + 1).is_some_and(|t| t.text == "(")
}

/// True if token `i` is any call of `name`: `name (`, method or free.
fn is_call(toks: &[Tok], i: usize, name: &str) -> bool {
    toks[i].kind == TokKind::Ident
        && toks[i].text == name
        && toks.get(i + 1).is_some_and(|t| t.text == "(")
}

// ---------------------------------------------------------------------
// counted-io
// ---------------------------------------------------------------------

/// Atomic read-modify-write methods that mutate a counter in place.
const ATOMIC_MUTATORS: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Receiver names that denote simulated device counters. Exact matches
/// plus the `cl_`-prefixed spellings; deliberately narrow so unrelated
/// atomics (task indices, file ids, engine metrics) stay out of scope.
fn is_counter_receiver(name: &str) -> bool {
    matches!(
        name,
        "reads" | "writes" | "calls" | "cl_reads" | "cl_writes" | "software_ps" | "software_ns"
    ) || name.contains("cl_read")
        || name.contains("cl_write")
}

/// Counted-I/O discipline: inside `pmem-sim`, atomic mutation is the
/// privilege of `metrics.rs`, `span.rs`, and `pool.rs` alone; anywhere
/// else in the workspace, atomics whose receiver is named like a device
/// counter are shadow accounting and get flagged.
fn rule_counted_io(rel: &str, toks: &[Tok], diags: &mut Vec<Diagnostic>) {
    let in_sim = rel.contains("crates/pmem-sim/src/");
    let sim_privileged = ["metrics.rs", "span.rs", "pool.rs"]
        .iter()
        .any(|f| rel.ends_with(f));
    for i in 0..toks.len() {
        let text = toks[i].text.as_str();
        let is_rmw = ATOMIC_MUTATORS.contains(&text) && is_method_call(toks, i, text);
        let is_store = text == "store" && is_method_call(toks, i, "store");
        if !(is_rmw || is_store) {
            continue;
        }
        if in_sim && !sim_privileged {
            // `.store(` has too many non-atomic uses to ban wholesale
            // even inside the simulator; the RMW mutators are bans.
            if is_store {
                continue;
            }
            diags.push(Diagnostic {
                file: rel.to_string(),
                line: toks[i].line,
                rule: COUNTED_IO,
                msg: format!(
                    "atomic `{}` outside pmem-sim's accounting files (metrics.rs/span.rs/pool.rs); \
                     route counter mutations through the Metrics API",
                    toks[i].text
                ),
            });
        } else if !in_sim {
            let receiver =
                if i >= 2 && toks[i - 1].text == "." && toks[i - 2].kind == TokKind::Ident {
                    toks[i - 2].text.as_str()
                } else {
                    ""
                };
            if is_counter_receiver(receiver) {
                diags.push(Diagnostic {
                    file: rel.to_string(),
                    line: toks[i].line,
                    rule: COUNTED_IO,
                    msg: format!(
                        "direct mutation of device counter `{receiver}` outside pmem-sim; \
                         simulated counters may only change via the Metrics API"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// ledger-only
// ---------------------------------------------------------------------

/// The counter-charging entry points of the sharded accounting spine:
/// `add_charge`, through which a `Storage` adds every charge its layer's
/// `ChargeRule` computed, and `add_reads` / `add_writes`, through which
/// the page store charges.
const LEDGER_ENTRY_POINTS: &[&str] = &["add_reads", "add_writes", "add_charge"];

/// The simulator files that legitimately charge the device: the ledger
/// itself and the two persistence layers that move cachelines. Anything
/// else in pmem-sim (spans, devices, pools) observes, never charges —
/// and neither does the charge rule (`charge.rs`), which only computes
/// what a storage charges.
const LEDGER_CHARGE_FILES: &[&str] = &[
    "crates/pmem-sim/src/metrics.rs",
    "crates/pmem-sim/src/layer.rs",
    "crates/pmem-sim/src/pages.rs",
];

/// Ledger-only discipline (the sharded-accounting refactor's contract):
/// `Metrics::add_*` is the charge API of the simulator's persistence
/// layers — callable only from the files in [`LEDGER_CHARGE_FILES`] —
/// and `merge_shard`, the bulk publication of a thread shard into the
/// shared bank, belongs to `metrics.rs` alone. Everything else,
/// including the rest of pmem-sim, observes counters through snapshots
/// and thread ledgers; it never charges or publishes them directly.
fn rule_ledger_only(rel: &str, toks: &[Tok], diags: &mut Vec<Diagnostic>) {
    let in_charge_file = LEDGER_CHARGE_FILES.iter().any(|f| rel.ends_with(f));
    let in_metrics = rel.contains("crates/pmem-sim/src/") && rel.ends_with("metrics.rs");
    for i in 0..toks.len() {
        let text = toks[i].text.as_str();
        if !in_charge_file && LEDGER_ENTRY_POINTS.contains(&text) && is_method_call(toks, i, text) {
            diags.push(Diagnostic {
                file: rel.to_string(),
                line: toks[i].line,
                rule: LEDGER_ONLY,
                msg: format!(
                    "`.{text}(` outside the simulator's charge files; only \
                     metrics.rs, layer.rs, and pages.rs charge the device — \
                     measured code observes counters through snapshots and \
                     thread ledgers"
                ),
            });
        }
        if !in_metrics && text == "merge_shard" && is_call(toks, i, "merge_shard") {
            diags.push(Diagnostic {
                file: rel.to_string(),
                line: toks[i].line,
                rule: LEDGER_ONLY,
                msg: "shard publication (`merge_shard`) is internal to pmem-sim's \
                      metrics.rs; call pmem_sim::flush_thread_accounting() at a \
                      flush point instead"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// uncounted-api
// ---------------------------------------------------------------------

/// Paths allowed to call `*_uncounted`: the simulator that defines them,
/// harness/bench/test crates, and the documented result-delivery and
/// checkpoint sites.
const UNCOUNTED_ALLOWED_DIRS: &[&str] = &[
    "crates/pmem-sim/",
    "crates/bench/",
    "crates/audit/",
    "examples/",
    "tests/",
];
const UNCOUNTED_ALLOWED_FILES: &[&str] = &[
    "crates/planner/src/lower.rs", // result delivery to the client
    "crates/planner/src/naive.rs", // golden oracle, outside the cost model
    "crates/db/src/stream.rs",     // batch hand-off to the client
    "crates/db/src/database.rs",   // checkpoint/recovery staging
];

/// Uncounted-API audit: calls to the `*_uncounted` escape hatches are
/// only legitimate where results leave the cost model (delivery,
/// checkpoints, golden oracles) or in harness code.
fn rule_uncounted_api(rel: &str, toks: &[Tok], diags: &mut Vec<Diagnostic>) {
    if UNCOUNTED_ALLOWED_DIRS.iter().any(|d| rel.contains(d))
        || UNCOUNTED_ALLOWED_FILES.iter().any(|f| rel.ends_with(f))
    {
        return;
    }
    for i in 0..toks.len() {
        if toks[i].kind == TokKind::Ident
            && toks[i].text.ends_with("_uncounted")
            && toks.get(i + 1).is_some_and(|t| t.text == "(")
        {
            diags.push(Diagnostic {
                file: rel.to_string(),
                line: toks[i].line,
                rule: UNCOUNTED_API,
                msg: format!(
                    "`{}` call outside the whitelisted delivery/checkpoint sites; \
                     measured paths must charge the simulated device",
                    toks[i].text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// wal-order
// ---------------------------------------------------------------------

/// Catalog-mutation calls that apply state in `database.rs`.
const STATE_MUTATORS: &[&str] = &[
    "install_table",
    "install_records",
    "add_table",
    "remove",
    "apply_insert",
    "mutate_bound",
];

/// True if token `i` is the WAL append: `.log(` (the database's
/// append-and-fsync helper) or `.append(` called on a receiver named
/// `wal`. Collections have an `.append(` too, and appending rows to a
/// table is the state change the log must precede, not the log.
fn is_wal_append(toks: &[Tok], i: usize) -> bool {
    is_method_call(toks, i, "log")
        || (is_method_call(toks, i, "append") && i >= 2 && toks[i - 2].text == "wal")
}

/// WAL ordering. Two checks:
///
/// * in `db/src/database.rs`, a function that appends to the log (see
///   [`is_wal_append`]) must not apply state (an [`STATE_MUTATORS`]
///   call) before the append;
/// * in any `db/src` file, a function that `try_append`s through the
///   fault-injectable layer must `fsync` afterwards — durability is
///   append **then** fsync, never append alone.
fn rule_wal_order(rel: &str, toks: &[Tok], diags: &mut Vec<Diagnostic>) {
    if !rel.contains("crates/db/src/") {
        return;
    }
    let is_database = rel.ends_with("database.rs");
    for (_name, body) in functions(toks) {
        if is_database {
            let log_at = (0..body.len()).find(|&i| is_wal_append(body, i));
            if let Some(log_at) = log_at {
                for i in 0..log_at {
                    if STATE_MUTATORS.iter().any(|m| is_call(body, i, m)) {
                        diags.push(Diagnostic {
                            file: rel.to_string(),
                            line: body[i].line,
                            rule: WAL_ORDER,
                            msg: format!(
                                "`{}` applies state before the WAL append in the same function; \
                                 the discipline is append → fsync → apply",
                                body[i].text
                            ),
                        });
                    }
                }
            }
        }
        if let Some(last_append) = (0..body.len())
            .rev()
            .find(|&i| is_method_call(body, i, "try_append"))
        {
            let fsynced = (last_append..body.len()).any(|i| is_method_call(body, i, "fsync"));
            if !fsynced {
                diags.push(Diagnostic {
                    file: rel.to_string(),
                    line: body[last_append].line,
                    rule: WAL_ORDER,
                    msg: "`try_append` without a following `fsync` in the same function; \
                          an unfsynced append is not durable and must not be acknowledged"
                        .to_string(),
                });
            }
        }
    }
}

/// Splits the token stream into `fn` bodies (nested functions are
/// reported both inside their parent and on their own).
fn functions(toks: &[Tok]) -> Vec<(String, &[Tok])> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text == "fn" && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            let name = toks[i + 1].text.clone();
            // Walk to the body `{` (or a `;` for a bodyless decl).
            let mut j = i + 2;
            let mut depth = 0usize;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth = depth.saturating_sub(1),
                    "{" if depth == 0 => break,
                    ";" if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.text == "{") {
                let start = j;
                let mut brace = 0usize;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "{" => brace += 1,
                        "}" => {
                            brace -= 1;
                            if brace == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                out.push((name, &toks[start..j.min(toks.len())]));
            }
            i += 2;
            continue;
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------
// panic-free
// ---------------------------------------------------------------------

/// Files that must never panic: WAL/checkpoint framing and recovery,
/// and the plan enumerator — it runs on whatever statement and catalog
/// a session hands it, and again mid-execution when a query re-plans.
const PANIC_ZONE_FILES: &[&str] = &[
    "crates/db/src/wal.rs",
    "crates/db/src/durable.rs",
    "crates/db/src/database.rs",
    "crates/planner/src/enumerate.rs",
    "crates/planner/src/enumerate/edge.rs",
    "crates/planner/src/enumerate/order.rs",
];
/// Directories that must never panic: the exec hot paths.
const PANIC_ZONE_DIRS: &[&str] = &[
    "crates/core/src/sort/",
    "crates/core/src/join/",
    "crates/core/src/agg/",
];

/// Panic-free zones: recovery code runs on disk garbage, hot paths run
/// under worker pools and the enumerator on user statements, so all
/// must surface failures as typed errors, never as unwinding.
fn rule_panic_free(rel: &str, toks: &[Tok], diags: &mut Vec<Diagnostic>) {
    let in_zone = PANIC_ZONE_FILES.iter().any(|f| rel.ends_with(f))
        || PANIC_ZONE_DIRS.iter().any(|d| rel.contains(d));
    if !in_zone {
        return;
    }
    for i in 0..toks.len() {
        if is_method_call(toks, i, "unwrap") || is_method_call(toks, i, "expect") {
            diags.push(Diagnostic {
                file: rel.to_string(),
                line: toks[i].line,
                rule: PANIC_FREE,
                msg: format!(
                    "`.{}()` in a panic-free zone; convert to a typed error \
                     (StorageError/DdlError/PlanError) or restructure to be infallible",
                    toks[i].text
                ),
            });
        }
        let is_panic_macro = matches!(
            toks[i].text.as_str(),
            "panic" | "unreachable" | "todo" | "unimplemented"
        ) && toks[i].kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|t| t.text == "!");
        if is_panic_macro {
            diags.push(Diagnostic {
                file: rel.to_string(),
                line: toks[i].line,
                rule: PANIC_FREE,
                msg: format!("`{}!` in a panic-free zone", toks[i].text),
            });
        }
    }
}

// ---------------------------------------------------------------------
// span-coverage
// ---------------------------------------------------------------------

/// The §3.1 operator modules outside the sort/join/agg directories.
const OPERATOR_FILES: &[&str] = &["crates/core/src/pipeline.rs", "crates/core/src/adaptive.rs"];

/// Span coverage: every exec operator module (a sort/join/agg algorithm
/// file, or a §3.1 operator file) opens its operators through
/// `ExecContext::operator`, the one guard that opens the `alg …` span
/// *and* holds the DRAM working set, so `EXPLAIN ANALYZE` and
/// `repro --profile` attribute its traffic and the pool figures count
/// its memory. A bare `span(` / `span_with(` trips at its line (its
/// operator would hold nothing); a module with neither trips at line 1.
/// `mod.rs`, `common.rs` and `kernel.rs` are dispatch/shared-helper
/// files, not operators: their traffic lands under the span of the
/// operator that calls them.
fn rule_span_coverage(rel: &str, toks: &[Tok], diags: &mut Vec<Diagnostic>) {
    let operator_module = OPERATOR_FILES.iter().any(|f| rel.ends_with(f))
        || (PANIC_ZONE_DIRS.iter().any(|d| rel.contains(d))
            && !["mod.rs", "common.rs", "kernel.rs"]
                .iter()
                .any(|helper| rel.ends_with(helper)));
    if !operator_module {
        return;
    }
    let mut bare = false;
    let mut guarded = false;
    for i in 0..toks.len() {
        if is_call(toks, i, "span") || is_call(toks, i, "span_with") {
            bare = true;
            diags.push(Diagnostic {
                file: rel.to_string(),
                line: toks[i].line,
                rule: SPAN_COVERAGE,
                msg: "operator opens a bare profiling span; open `ctx.operator(name, bytes)` \
                      instead so its DRAM working set is held too"
                    .to_string(),
            });
        }
        guarded |= is_method_call(toks, i, "operator");
    }
    if !bare && !guarded {
        diags.push(Diagnostic {
            file: rel.to_string(),
            line: 1,
            rule: SPAN_COVERAGE,
            msg: "operator module never opens `ctx.operator(name, bytes)`; its traffic is \
                  invisible to profiles and its working set to the pool"
                .to_string(),
        });
    }
}

// ---------------------------------------------------------------------
// inline-codec
// ---------------------------------------------------------------------

/// The record-codec traits: their methods run once per scanned, moved
/// or probed record in every operator.
const CODEC_TRAITS: &[&str] = &["Storable", "Record"];

/// Inline codecs: in the shipped sources (`crates/*/src/`), every `fn`
/// of an `impl … Storable for …` or `impl … Record for …` block carries
/// `#[inline]`. The impls are not generic, so without the attribute a
/// caller in another crate gets an out-of-line call that decodes the
/// whole record where its docs promise a key load (~1.5 ns on every
/// record of every scan), and no test can see the difference.
fn rule_inline_codec(rel: &str, toks: &[Tok], diags: &mut Vec<Diagnostic>) {
    if !(rel.starts_with("crates/") && rel.contains("/src/")) {
        return;
    }
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text != "impl" {
            i += 1;
            continue;
        }
        // The header runs to the block's `{`; the trait is the word
        // before `for`.
        let Some(open) = (i..toks.len()).find(|&j| toks[j].text == "{") else {
            return;
        };
        let codec = (i + 1..open).find_map(|j| {
            (toks[j].text == "for" && CODEC_TRAITS.contains(&toks[j - 1].text.as_str()))
                .then(|| toks[j - 1].text.as_str())
        });
        let Some(codec) = codec else {
            i = open + 1;
            continue;
        };
        // Items sit at brace depth 1; `item` is where the current one
        // (attributes included) starts.
        let (mut depth, mut item, mut j) = (0usize, open + 1, open);
        while j < toks.len() {
            match toks[j].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                    if depth == 1 {
                        item = j + 1;
                    }
                }
                ";" if depth == 1 => item = j + 1,
                "fn" if depth == 1 => {
                    let inlined = toks[item..j]
                        .windows(3)
                        .any(|w| w[0].text == "#" && w[1].text == "[" && w[2].text == "inline");
                    if !inlined {
                        let name = toks.get(j + 1).map_or("?", |t| t.text.as_str());
                        diags.push(Diagnostic {
                            file: rel.to_string(),
                            line: toks[j].line,
                            rule: INLINE_CODEC,
                            msg: format!(
                                "`fn {name}` of an `impl {codec} for` block without `#[inline]`; \
                                 a codec method is called per record from other crates and \
                                 must be inlinable there"
                            ),
                        });
                    }
                }
                _ => {}
            }
            j += 1;
        }
        i = j + 1;
    }
}

// ---------------------------------------------------------------------
// decode
// ---------------------------------------------------------------------

/// Files whose records move as stored bytes: the join family and the
/// sort kernels.
const BYTE_PATHS: &[&str] = &["crates/core/src/join/", "crates/core/src/sort/kernel.rs"];

/// Byte paths: in the join family and the sort kernels, a record a scan
/// lends out is built into tables, heaped, spilled and paired as its
/// stored bytes, so a `read_from` there — called, or named as a function
/// value — is a whole-record decode on a hot path that no counter shows.
/// A site that needs a value (the key peek) says why with an allow.
fn rule_decode(rel: &str, toks: &[Tok], diags: &mut Vec<Diagnostic>) {
    if !BYTE_PATHS.iter().any(|p| rel.contains(p)) {
        return;
    }
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || toks[i].text != "read_from" {
            continue;
        }
        let called = toks.get(i + 1).is_some_and(|t| t.text == "(");
        let named = i > 0 && toks[i - 1].text == ":";
        let defined = i > 0 && toks[i - 1].text == "fn";
        if (called || named) && !defined {
            diags.push(Diagnostic {
                file: rel.to_string(),
                line: toks[i].line,
                rule: DECODE,
                msg: "`read_from` on a byte path decodes a whole record; move its stored \
                      bytes instead, or peek the key with `key_of`"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// allow filtering
// ---------------------------------------------------------------------

/// Drops diagnostics covered by a same-line or line-above allow comment
/// of the matching rule; allows without a reason become diagnostics
/// themselves.
fn apply_allows(rel: &str, allows: &[Allow], diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = diags
        .into_iter()
        .filter(|d| {
            !allows.iter().any(|a| {
                a.rule == d.rule
                    && !a.reason.is_empty()
                    && (a.line == d.line || a.line + 1 == d.line)
            })
        })
        .collect();
    for a in allows {
        if a.reason.is_empty() {
            out.push(Diagnostic {
                file: rel.to_string(),
                line: a.line,
                rule: ALLOW_REASON,
                msg: format!(
                    "audit:allow({}) without a reason; state why the rule does not apply here",
                    a.rule
                ),
            });
        }
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}
