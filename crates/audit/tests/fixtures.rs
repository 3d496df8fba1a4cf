//! Line-precise tests over the known-bad fixtures: each fixture trips
//! exactly its rule at the expected line, and `// audit:allow`
//! suppresses it (when it carries a reason).

use wl_audit::{rules, scan_source, Diagnostic};

/// Asserts `diags` is exactly the given `(line, rule)` set, in order.
fn assert_diags(diags: &[Diagnostic], expect: &[(u32, &str)]) {
    let got: Vec<(u32, &str)> = diags.iter().map(|d| (d.line, d.rule)).collect();
    assert_eq!(got, expect, "diagnostics: {diags:#?}");
}

#[test]
fn counted_io_outside_sim_trips_at_the_fetch_add() {
    let diags = scan_source(
        "crates/core/src/exec.rs",
        include_str!("../fixtures/counted_io.rs"),
    );
    assert_diags(&diags, &[(10, rules::COUNTED_IO)]);
}

#[test]
fn counted_io_inside_sim_outside_accounting_files_trips() {
    let diags = scan_source(
        "crates/pmem-sim/src/layer.rs",
        include_str!("../fixtures/counted_io_sim.rs"),
    );
    assert_diags(&diags, &[(7, rules::COUNTED_IO)]);
}

#[test]
fn counted_io_is_silent_in_the_accounting_files() {
    let diags = scan_source(
        "crates/pmem-sim/src/metrics.rs",
        include_str!("../fixtures/counted_io_sim.rs"),
    );
    assert_diags(&diags, &[]);
}

#[test]
fn ledger_only_trips_charges_and_merges_outside_the_simulator() {
    let diags = scan_source(
        "crates/core/src/exec.rs",
        include_str!("../fixtures/ledger_only.rs"),
    );
    assert_diags(&diags, &[(5, rules::LEDGER_ONLY), (9, rules::LEDGER_ONLY)]);
}

#[test]
fn ledger_only_allows_charges_inside_the_simulator_but_not_merges() {
    let diags = scan_source(
        "crates/pmem-sim/src/layer.rs",
        include_str!("../fixtures/ledger_only.rs"),
    );
    assert_diags(&diags, &[(9, rules::LEDGER_ONLY)]);
}

#[test]
fn ledger_only_trips_charges_in_sim_files_outside_the_charge_list() {
    // Simulator files that aren't metrics/layer/pages (spans, devices,
    // pools) observe the ledger; a charge there is a violation too.
    let diags = scan_source(
        "crates/pmem-sim/src/span.rs",
        include_str!("../fixtures/ledger_only.rs"),
    );
    assert_diags(&diags, &[(5, rules::LEDGER_ONLY), (9, rules::LEDGER_ONLY)]);
}

#[test]
fn ledger_only_trips_layer_call_charges_outside_the_charge_files() {
    // The charge rule computes charges and never makes them: a charge
    // from charge.rs trips the rule like one from an observer.
    for observer in [
        "crates/pmem-sim/src/span.rs",
        "crates/pmem-sim/src/pool.rs",
        "crates/pmem-sim/src/charge.rs",
    ] {
        let diags = scan_source(observer, include_str!("../fixtures/ledger_only_charges.rs"));
        assert_diags(&diags, &[(5, rules::LEDGER_ONLY), (9, rules::LEDGER_ONLY)]);
    }
    let diags = scan_source(
        "crates/pmem-sim/src/layer.rs",
        include_str!("../fixtures/ledger_only_charges.rs"),
    );
    assert_diags(&diags, &[]);
}

#[test]
fn ledger_only_allows_charges_in_the_page_cache() {
    let diags = scan_source(
        "crates/pmem-sim/src/pages.rs",
        include_str!("../fixtures/ledger_only.rs"),
    );
    assert_diags(&diags, &[(9, rules::LEDGER_ONLY)]);
}

#[test]
fn ledger_only_is_silent_in_the_shard_merge_internals() {
    let diags = scan_source(
        "crates/pmem-sim/src/metrics.rs",
        include_str!("../fixtures/ledger_only.rs"),
    );
    assert_diags(&diags, &[]);
}

#[test]
fn uncounted_api_trips_outside_the_whitelist() {
    let diags = scan_source(
        "crates/core/src/exec.rs",
        include_str!("../fixtures/uncounted_api.rs"),
    );
    assert_diags(&diags, &[(5, rules::UNCOUNTED_API)]);
}

#[test]
fn uncounted_api_is_silent_at_delivery_sites() {
    let diags = scan_source(
        "crates/planner/src/lower.rs",
        include_str!("../fixtures/uncounted_api.rs"),
    );
    assert_diags(&diags, &[]);
}

#[test]
fn wal_order_trips_on_state_applied_before_the_append() {
    let diags = scan_source(
        "crates/db/src/database.rs",
        include_str!("../fixtures/wal_order.rs"),
    );
    assert_diags(&diags, &[(4, rules::WAL_ORDER)]);
}

#[test]
fn wal_order_is_not_satisfied_by_a_collection_append() {
    // Before the rule was narrowed to `wal.append(`, the `col.append(`
    // on line 6 counted as the log append and hid the early apply.
    let diags = scan_source(
        "crates/db/src/database.rs",
        include_str!("../fixtures/wal_order_collection_append.rs"),
    );
    assert_diags(&diags, &[(7, rules::WAL_ORDER)]);
}

#[test]
fn wal_order_accepts_log_then_in_place_apply() {
    // `mutate_bound` precedes `data.append(` in `apply_insert`; only a
    // real WAL append makes an earlier mutator a violation.
    let diags = scan_source(
        "crates/db/src/database.rs",
        include_str!("../fixtures/wal_order_apply_after_log.rs"),
    );
    assert_diags(&diags, &[]);
}

#[test]
fn wal_order_trips_on_append_without_fsync() {
    let diags = scan_source(
        "crates/db/src/wal.rs",
        include_str!("../fixtures/wal_fsync.rs"),
    );
    assert_diags(&diags, &[(4, rules::WAL_ORDER)]);
}

#[test]
fn panic_free_trips_each_site_in_a_zone_file() {
    let diags = scan_source(
        "crates/db/src/wal.rs",
        include_str!("../fixtures/panic_free.rs"),
    );
    assert_diags(
        &diags,
        &[
            (3, rules::PANIC_FREE),
            (4, rules::PANIC_FREE),
            (6, rules::PANIC_FREE),
        ],
    );
}

#[test]
fn panic_free_covers_the_plan_enumerator_and_its_split_out_files() {
    for zone in [
        "crates/planner/src/enumerate.rs",
        "crates/planner/src/enumerate/edge.rs",
        "crates/planner/src/enumerate/order.rs",
    ] {
        let diags = scan_source(zone, include_str!("../fixtures/panic_free_enumerator.rs"));
        assert_diags(&diags, &[(4, rules::PANIC_FREE), (5, rules::PANIC_FREE)]);
    }
    // The rest of the planner is not (yet) a zone.
    let diags = scan_source(
        "crates/planner/src/lower.rs",
        include_str!("../fixtures/panic_free_enumerator.rs"),
    );
    assert_diags(&diags, &[]);
}

#[test]
fn panic_free_accepts_typed_errors_and_test_modules_in_the_enumerator() {
    let diags = scan_source(
        "crates/planner/src/enumerate/order.rs",
        include_str!("../fixtures/panic_free_enumerator_typed.rs"),
    );
    assert_diags(&diags, &[]);
}

#[test]
fn panic_free_is_silent_outside_the_zones() {
    let diags = scan_source(
        "crates/wisconsin/src/lib.rs",
        include_str!("../fixtures/panic_free.rs"),
    );
    assert_diags(&diags, &[]);
}

#[test]
fn span_coverage_trips_on_spanless_operator_modules() {
    let diags = scan_source(
        "crates/core/src/sort/bogus.rs",
        include_str!("../fixtures/span_coverage.rs"),
    );
    assert_diags(&diags, &[(1, rules::SPAN_COVERAGE)]);
}

#[test]
fn span_coverage_covers_the_section_3_1_operator_files() {
    for operator in ["crates/core/src/pipeline.rs", "crates/core/src/adaptive.rs"] {
        let diags = scan_source(operator, include_str!("../fixtures/span_coverage.rs"));
        assert_diags(&diags, &[(1, rules::SPAN_COVERAGE)]);
    }
}

#[test]
fn span_coverage_trips_on_each_bare_span_unless_allowed() {
    let diags = scan_source(
        "crates/core/src/join/bogus.rs",
        include_str!("../fixtures/span_coverage_bare.rs"),
    );
    assert_diags(&diags, &[(4, rules::SPAN_COVERAGE)]);
}

#[test]
fn span_coverage_accepts_the_operator_guard() {
    for operator in [
        "crates/core/src/agg/bogus.rs",
        "crates/core/src/pipeline.rs",
    ] {
        let diags = scan_source(
            operator,
            include_str!("../fixtures/span_coverage_operator.rs"),
        );
        assert_diags(&diags, &[]);
    }
}

#[test]
fn span_coverage_skips_dispatch_and_helper_files() {
    let diags = scan_source(
        "crates/core/src/sort/mod.rs",
        include_str!("../fixtures/span_coverage.rs"),
    );
    assert_diags(&diags, &[]);
}

#[test]
fn inline_codec_trips_on_each_codec_method_without_the_attribute() {
    for shipped in [
        "crates/wisconsin/src/record.rs",
        "crates/core/src/agg/mod.rs",
    ] {
        let diags = scan_source(shipped, include_str!("../fixtures/inline_codec.rs"));
        assert_diags(
            &diags,
            &[(8, rules::INLINE_CODEC), (22, rules::INLINE_CODEC)],
        );
    }
    // Test-only record types (integration tests, examples) are not
    // shipped and may stay plain.
    for unshipped in ["crates/pmem-sim/tests/views.rs", "examples/quickstart.rs"] {
        let diags = scan_source(unshipped, include_str!("../fixtures/inline_codec.rs"));
        assert_diags(&diags, &[]);
    }
}

#[test]
fn inline_codec_accepts_inlined_codecs_and_ignores_other_impls() {
    let diags = scan_source(
        "crates/wisconsin/src/record.rs",
        include_str!("../fixtures/inline_codec_clean.rs"),
    );
    assert_diags(&diags, &[]);
}

#[test]
fn decode_trips_at_each_decode_on_the_byte_paths() {
    // Line 3 calls the decoder, line 7 names it as a function value;
    // the key peek carries an allow, the codec's own definition and the
    // test module are not byte-path code.
    for byte_path in [
        "crates/core/src/join/kernel.rs",
        "crates/core/src/sort/kernel.rs",
    ] {
        let diags = scan_source(byte_path, include_str!("../fixtures/decode.rs"));
        assert_diags(&diags, &[(3, rules::DECODE), (7, rules::DECODE)]);
    }
    // Elsewhere a decode is the point: the merge's decoded iterator,
    // the aggregations' values.
    for elsewhere in [
        "crates/core/src/sort/common.rs",
        "crates/core/src/agg/mod.rs",
    ] {
        let diags = scan_source(elsewhere, include_str!("../fixtures/decode.rs"));
        assert_diags(&diags, &[]);
    }
}

#[test]
fn allow_with_reason_suppresses_the_finding() {
    let diags = scan_source(
        "crates/db/src/wal.rs",
        include_str!("../fixtures/allow_suppressed.rs"),
    );
    assert_diags(&diags, &[]);
}

#[test]
fn allow_without_reason_is_itself_flagged() {
    let diags = scan_source(
        "crates/db/src/wal.rs",
        include_str!("../fixtures/allow_no_reason.rs"),
    );
    assert_diags(&diags, &[(3, rules::ALLOW_REASON), (3, rules::PANIC_FREE)]);
}

#[test]
fn allow_for_the_wrong_rule_does_not_suppress() {
    let src = "pub fn f(b: &[u8]) -> u8 {\n    // audit:allow(wal-order) wrong rule\n    *b.first().unwrap()\n}\n";
    let diags = scan_source("crates/db/src/wal.rs", src);
    assert_diags(&diags, &[(3, rules::PANIC_FREE)]);
}

#[test]
fn the_shipped_workspace_is_clean() {
    let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = wl_audit::find_workspace_root(here).expect("workspace root");
    let diags = wl_audit::scan_workspace(&root);
    assert!(
        diags.is_empty(),
        "wl-audit found {} violation(s) in the shipped tree:\n{}",
        diags.len(),
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
