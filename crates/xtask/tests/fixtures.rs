//! The lint must catch every seeded violation in `fixtures/bad/` and stay
//! silent on every `fixtures/ok/` file. Fixture files are excluded from the
//! workspace walk (the `fixtures` dir is in the lint's skip list), so they
//! are linted here explicitly, each under a virtual workspace path that
//! makes the path-scoped rules apply.

use xtask::lint::lint_source;

fn fixture(name: &str) -> String {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn bad_fixtures_are_all_caught() {
    // (fixture file, virtual path it is linted under, rule, expected count)
    let cases: &[(&str, &str, &str, usize)] = &[
        (
            "bad/hash_iter.rs",
            "crates/ml/src/fixture.rs",
            "hash-iter",
            4,
        ),
        (
            "bad/seedless_rng.rs",
            "crates/p2psim/src/fixture.rs",
            "seedless-rng",
            4,
        ),
        (
            "bad/naked_unsafe.rs",
            "crates/textproc/src/fixture.rs",
            "unsafe-safety",
            2,
        ),
        (
            "bad/raw_wire_cost.rs",
            "crates/p2pclassify/src/fixture.rs",
            "wire-discipline",
            2,
        ),
        (
            "bad/wall_clock.rs",
            "crates/doctagger/src/fixture.rs",
            "wall-clock",
            2,
        ),
        (
            "bad/thread_spawn.rs",
            "crates/p2psim/src/fixture.rs",
            "thread-spawn",
            2,
        ),
        (
            "bad/send_unchecked.rs",
            "crates/p2pclassify/src/fixture.rs",
            "send-unchecked",
            3,
        ),
    ];
    for (file, vpath, rule, expected) in cases {
        let (diags, _) = lint_source(vpath, &fixture(file));
        let hits = diags.iter().filter(|d| d.rule == *rule).count();
        assert_eq!(
            hits, *expected,
            "{file}: expected {expected} {rule} diagnostics, got {hits}: {diags:#?}"
        );
        // Every diagnostic carries a usable location.
        for d in &diags {
            assert!(d.line > 0, "{file}: {d}");
            assert_eq!(d.file, *vpath);
        }
    }
}

#[test]
fn ok_fixtures_lint_clean() {
    let cases: &[(&str, &str)] = &[
        ("ok/hash_iter_allowed.rs", "crates/ml/src/fixture.rs"),
        (
            "ok/wall_clock_allowed.rs",
            "crates/doctagger/src/fixture.rs",
        ),
        ("ok/unsafe_documented.rs", "crates/textproc/src/fixture.rs"),
        ("ok/wire_measured.rs", "crates/p2pclassify/src/fixture.rs"),
        ("ok/send_checked.rs", "crates/p2pclassify/src/fixture.rs"),
        ("ok/seeded_rng.rs", "crates/p2psim/src/fixture.rs"),
    ];
    for (file, vpath) in cases {
        let (diags, _) = lint_source(vpath, &fixture(file));
        assert!(diags.is_empty(), "{file}: expected clean, got {diags:#?}");
    }
}

#[test]
fn bad_fixtures_outside_scoped_paths_do_not_fire_scoped_rules() {
    // wire-discipline only applies inside crates/p2pclassify.
    let (diags, _) = lint_source(
        "crates/p2psim/src/fixture.rs",
        &fixture("bad/raw_wire_cost.rs"),
    );
    assert!(diags.is_empty(), "{diags:#?}");
    // wall-clock is allowed in the timing helper.
    let (diags, _) = lint_source(
        "crates/doctagger/src/timing.rs",
        &fixture("bad/wall_clock.rs"),
    );
    assert!(diags.is_empty(), "{diags:#?}");
    // The real-socket boundary (peer daemon + reactor shim) is an audited
    // exception for both wall-clock and thread-spawn...
    for vpath in [
        "crates/peerd/src/fixture.rs",
        "vendor/reactor/src/fixture.rs",
    ] {
        let (diags, _) = lint_source(vpath, &fixture("bad/wall_clock.rs"));
        assert!(diags.is_empty(), "{vpath}: {diags:#?}");
        let (diags, _) = lint_source(vpath, &fixture("bad/thread_spawn.rs"));
        let hits = diags.iter().filter(|d| d.rule == "thread-spawn").count();
        assert_eq!(hits, 0, "{vpath}: {diags:#?}");
    }
    // ...while the simulation crates stay banned from both.
    let (diags, _) = lint_source(
        "crates/p2psim/src/fixture.rs",
        &fixture("bad/wall_clock.rs"),
    );
    assert_eq!(
        diags.iter().filter(|d| d.rule == "wall-clock").count(),
        2,
        "{diags:#?}"
    );
    let (diags, _) = lint_source(
        "crates/p2pclassify/src/fixture.rs",
        &fixture("bad/thread_spawn.rs"),
    );
    assert_eq!(
        diags.iter().filter(|d| d.rule == "thread-spawn").count(),
        2,
        "{diags:#?}"
    );
}

#[test]
fn documented_unsafe_fixture_has_full_inventory_coverage() {
    let (_, sites) = lint_source(
        "crates/textproc/src/fixture.rs",
        &fixture("ok/unsafe_documented.rs"),
    );
    assert_eq!(sites.len(), 2);
    assert!(sites.iter().all(|s| s.documented), "{sites:#?}");
    let (_, sites) = lint_source(
        "crates/textproc/src/fixture.rs",
        &fixture("bad/naked_unsafe.rs"),
    );
    assert_eq!(sites.len(), 2);
    assert!(sites.iter().all(|s| !s.documented), "{sites:#?}");
}
