//! Fixture suite: every rule fires on a known-bad snippet and stays quiet
//! on its corrected twin. The snippets live in `fixtures/` as real `.rs`
//! files (readable, diffable) and are fed to [`analyze`] as synthetic
//! kernel-crate sources.

use ptstore_lint::rules::{
    RULE_ALLOW, RULE_ATOMICS, RULE_CHANNEL, RULE_EXHAUSTIVE, RULE_SHOOTDOWN,
};
use ptstore_lint::{analyze, Config, Finding, SourceFile};

/// Wraps fixture text as a non-test file inside the policed kernel crate.
fn kernel_file(path: &str, text: &str) -> SourceFile {
    SourceFile {
        crate_name: "ptstore-kernel".into(),
        path: path.into(),
        is_test: false,
        text: text.into(),
    }
}

fn findings_for(rule: &str, files: Vec<SourceFile>, cfg: &Config) -> Vec<Finding> {
    analyze(files, cfg)
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

#[test]
fn channel_rule_fires_on_bad_and_passes_good() {
    let cfg = Config::default();
    let bad = findings_for(
        RULE_CHANNEL,
        vec![kernel_file(
            "src/bad.rs",
            include_str!("../fixtures/channel_bad.rs"),
        )],
        &cfg,
    );
    assert_eq!(bad.len(), 5, "five raw sites: {bad:#?}");
    assert!(bad.iter().any(|f| f.message.contains("mem_unchecked")));
    assert!(bad.iter().any(|f| f.message.contains("pmp_mut")));
    assert!(bad
        .iter()
        .any(|f| f.message.contains("install_secure_region")));

    let good = findings_for(
        RULE_CHANNEL,
        vec![kernel_file(
            "src/good.rs",
            include_str!("../fixtures/channel_good.rs"),
        )],
        &cfg,
    );
    assert!(good.is_empty(), "corrected twin must be clean: {good:#?}");
}

#[test]
fn atomics_rule_fires_on_bad_and_passes_good() {
    let cfg = Config::default();
    let bad = findings_for(
        RULE_ATOMICS,
        vec![kernel_file(
            "src/bad.rs",
            include_str!("../fixtures/atomics_bad.rs"),
        )],
        &cfg,
    );
    assert_eq!(bad.len(), 5, "five raw ordering sites: {bad:#?}");
    for variant in ["Relaxed", "Release", "Acquire", "AcqRel", "SeqCst"] {
        assert!(
            bad.iter().any(|f| f.message.contains(variant)),
            "missing Ordering::{variant}: {bad:#?}"
        );
    }

    let good = findings_for(
        RULE_ATOMICS,
        vec![kernel_file(
            "src/good.rs",
            include_str!("../fixtures/atomics_good.rs"),
        )],
        &cfg,
    );
    assert!(good.is_empty(), "corrected twin must be clean: {good:#?}");
}

#[test]
fn atomics_rule_skips_the_process_table_and_tests() {
    let cfg = Config::default();
    // The same bad text is legal inside the allowlisted table module.
    let inside = findings_for(
        RULE_ATOMICS,
        vec![kernel_file(
            "crates/kernel/src/process.rs",
            include_str!("../fixtures/atomics_bad.rs"),
        )],
        &cfg,
    );
    assert!(inside.is_empty(), "{inside:#?}");
    // ...and in test files, which may coordinate however they like.
    let mut test_file = kernel_file("tests/race.rs", include_str!("../fixtures/atomics_bad.rs"));
    test_file.is_test = true;
    assert!(findings_for(RULE_ATOMICS, vec![test_file], &cfg).is_empty());
}

#[test]
fn atomics_rule_polices_every_crate() {
    // Unlike channel-confinement, the rule is workspace-wide: a bench or
    // executor crate sneaking in atomics is exactly the regression it
    // exists to catch.
    let cfg = Config::default();
    let other = SourceFile {
        crate_name: "ptstore-bench".into(),
        path: "crates/bench/src/pool.rs".into(),
        is_test: false,
        text: include_str!("../fixtures/atomics_bad.rs").into(),
    };
    let found = findings_for(RULE_ATOMICS, vec![other], &cfg);
    assert_eq!(found.len(), 5, "{found:#?}");
}

#[test]
fn channel_rule_flags_every_checked_bus_helper() {
    // Bursts, fetches, the zero-check and the bit flip are bus accesses as
    // much as `read`/`write` are: outside the channel module each fires.
    let cfg = Config::default();
    let bad = findings_for(
        RULE_CHANNEL,
        vec![kernel_file(
            "src/proc_mgmt.rs",
            include_str!("../fixtures/channel_burst_bad.rs"),
        )],
        &cfg,
    );
    for method in [
        "read_words",
        "write_words",
        "fetch",
        "secure_page_is_zero",
        "inject_bit_flip",
    ] {
        assert!(
            bad.iter()
                .any(|f| f.message.contains(&format!("`{method}`"))),
            "{method} must be flagged: {bad:#?}"
        );
    }
    assert_eq!(bad.len(), 5, "five raw sites: {bad:#?}");
}

#[test]
fn channel_rule_skips_the_channel_module_itself() {
    // The same bad text is legal inside the allowlisted channel module.
    let cfg = Config::default();
    let inside = findings_for(
        RULE_CHANNEL,
        vec![kernel_file(
            "src/channel.rs",
            include_str!("../fixtures/channel_bad.rs"),
        )],
        &cfg,
    );
    assert!(inside.is_empty(), "{inside:#?}");
}

#[test]
fn channel_rule_ignores_other_crates() {
    let cfg = Config::default();
    let other = SourceFile {
        crate_name: "ptstore-mem".into(),
        path: "src/bus.rs".into(),
        is_test: false,
        text: include_str!("../fixtures/channel_bad.rs").into(),
    };
    assert!(findings_for(RULE_CHANNEL, vec![other], &cfg).is_empty());
}

#[test]
fn shootdown_rule_fires_on_bad_and_passes_good() {
    let cfg = Config::default();
    let bad = findings_for(
        RULE_SHOOTDOWN,
        vec![kernel_file(
            "src/bad.rs",
            include_str!("../fixtures/shootdown_bad.rs"),
        )],
        &cfg,
    );
    let names: Vec<&str> = bad
        .iter()
        .map(|f| {
            f.message
                .split('`')
                .nth(1)
                .expect("message names the function")
        })
        .collect();
    assert_eq!(
        names,
        [
            "unmap_no_flush",
            "write_protect_no_flush",
            "tagged_no_flush"
        ],
        "all three downgrade shapes, and only them: {bad:#?}"
    );

    let good = findings_for(
        RULE_SHOOTDOWN,
        vec![kernel_file(
            "src/good.rs",
            include_str!("../fixtures/shootdown_good.rs"),
        )],
        &cfg,
    );
    assert!(
        good.is_empty(),
        "direct and transitive flushes both satisfy pairing: {good:#?}"
    );
}

#[test]
fn shootdown_rule_accepts_the_batched_drain_api() {
    let cfg = Config::default();
    let bad = findings_for(
        RULE_SHOOTDOWN,
        vec![kernel_file(
            "src/bad.rs",
            include_str!("../fixtures/shootdown_deferred_bad.rs"),
        )],
        &cfg,
    );
    let names: Vec<&str> = bad
        .iter()
        .map(|f| {
            f.message
                .split('`')
                .nth(1)
                .expect("message names the function")
        })
        .collect();
    assert_eq!(
        names,
        [
            "unmap_queues_nothing",
            "downgrade_reads_generation_only",
            "repoint_pushes_raw_queue"
        ],
        "queue-adjacent bookkeeping is not a flush: {bad:#?}"
    );

    let good = findings_for(
        RULE_SHOOTDOWN,
        vec![kernel_file(
            "src/good.rs",
            include_str!("../fixtures/shootdown_deferred_good.rs"),
        )],
        &cfg,
    );
    assert!(
        good.is_empty(),
        "queue_flush_page / drain_deferred_flushes satisfy pairing: {good:#?}"
    );
}

#[test]
fn allow_rule_fires_on_bad_and_passes_good() {
    let cfg = Config::default();
    // Rule 3 is workspace-wide: use a non-kernel crate to prove it.
    let wrap = |path: &str, text: &str| SourceFile {
        crate_name: "ptstore-isa".into(),
        path: path.into(),
        is_test: false,
        text: text.into(),
    };
    let bad = findings_for(
        RULE_ALLOW,
        vec![wrap("src/bad.rs", include_str!("../fixtures/allow_bad.rs"))],
        &cfg,
    );
    assert_eq!(bad.len(), 3, "{bad:#?}");
    assert!(
        bad.iter().any(|f| f
            .message
            .contains("cast_possible_truncation, clippy::cast_sign_loss")),
        "multi-lint attribute is reported verbatim: {bad:#?}"
    );

    let good = findings_for(
        RULE_ALLOW,
        vec![wrap(
            "src/good.rs",
            include_str!("../fixtures/allow_good.rs"),
        )],
        &cfg,
    );
    assert!(good.is_empty(), "{good:#?}");
}

#[test]
fn exhaustive_rule_fires_on_bad_and_passes_good() {
    let cfg = Config {
        exhaustive_enums: vec![("Verdict".into(), "fixture-crate".into())],
        ..Config::default()
    };
    let wrap = |text: &str| SourceFile {
        crate_name: "fixture-crate".into(),
        path: "src/verdict.rs".into(),
        is_test: false,
        text: text.into(),
    };

    let bad = findings_for(
        RULE_EXHAUSTIVE,
        vec![wrap(include_str!("../fixtures/exhaustive_bad.rs"))],
        &cfg,
    );
    assert_eq!(bad.len(), 2, "{bad:#?}");
    assert!(bad.iter().any(|f| f.message.contains("Verdict::Blocked")));
    assert!(bad.iter().any(|f| f.message.contains("Verdict::Leaked")));

    let good = findings_for(
        RULE_EXHAUSTIVE,
        vec![wrap(include_str!("../fixtures/exhaustive_good.rs"))],
        &cfg,
    );
    assert!(good.is_empty(), "{good:#?}");
}

#[test]
fn exhaustive_rule_covers_the_modelcheck_verdict() {
    // The default config targets `ModelVerdict` in ptstore-modelcheck; the
    // fixture twins stand in for that crate so the rule's behavior on the
    // verdict enum is pinned independently of the real workspace.
    let cfg = Config {
        exhaustive_enums: vec![("ModelVerdict".into(), "fixture-crate".into())],
        ..Config::default()
    };
    let wrap = |text: &str| SourceFile {
        crate_name: "fixture-crate".into(),
        path: "src/verdict.rs".into(),
        is_test: false,
        text: text.into(),
    };

    let bad = findings_for(
        RULE_EXHAUSTIVE,
        vec![wrap(include_str!("../fixtures/modelverdict_bad.rs"))],
        &cfg,
    );
    assert_eq!(bad.len(), 2, "{bad:#?}");
    assert!(bad
        .iter()
        .any(|f| f.message.contains("ModelVerdict::Falsified")));
    assert!(bad
        .iter()
        .any(|f| f.message.contains("ModelVerdict::Truncated")));

    let good = findings_for(
        RULE_EXHAUSTIVE,
        vec![wrap(include_str!("../fixtures/modelverdict_good.rs"))],
        &cfg,
    );
    assert!(good.is_empty(), "{good:#?}");

    // And the real default config does target the real crate.
    assert!(Config::default()
        .exhaustive_enums
        .iter()
        .any(|(e, k)| e == "ModelVerdict" && k == "ptstore-modelcheck"));
}

#[test]
fn exhaustive_rule_reports_missing_target_enum() {
    let cfg = Config {
        exhaustive_enums: vec![("Vanished".into(), "fixture-crate".into())],
        ..Config::default()
    };
    let out = analyze(Vec::new(), &cfg);
    assert_eq!(out.len(), 1);
    assert!(out[0].message.contains("not found"), "{out:#?}");
}

#[test]
fn findings_are_sorted_and_deduplicated() {
    let cfg = Config::default();
    // Feed the same bad file twice under different paths: output must be
    // sorted by (file, line, rule, message) with no duplicates per file.
    let out = analyze(
        vec![
            kernel_file("src/b.rs", include_str!("../fixtures/channel_bad.rs")),
            kernel_file("src/a.rs", include_str!("../fixtures/channel_bad.rs")),
        ],
        &cfg,
    );
    let mut sorted = out.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(out, sorted, "analyze output is canonical");
    assert!(out.first().unwrap().file < out.last().unwrap().file);
}
