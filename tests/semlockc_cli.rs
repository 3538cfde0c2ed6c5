//! CLI tests of `semlockc check --json`: the machine-readable output is
//! a stable contract (`semlock-audit/v2`), pinned by a golden file.
//!
//! v2 wraps the v1 per-file array in a top-level object: `schema` tag,
//! `files` (the unchanged v1 per-file objects), and `ordering_audit` (the
//! runtime's machine-checked memory-ordering table, the same
//! `semlock::mech::ORDERING_AUDIT` contract the `model` crate's
//! interleaving checker verifies mutant-by-mutant).

use std::process::Command;

fn check_json(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_semlockc"))
        .arg("check")
        .arg("--json")
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("semlockc runs");
    assert!(
        out.status.success(),
        "exit {:?}, stderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn check_json_matches_the_v2_golden() {
    let got = check_json(&["examples/programs/fig1.sl"]);
    let want = include_str!("golden/semlockc_check_fig1.json");
    assert_eq!(
        got.trim_end(),
        want.trim_end(),
        "semlock-audit/v2 output drifted from the golden file; if the \
         change is deliberate, update tests/golden/semlockc_check_fig1.json \
         and bump the schema tag if the shape changed"
    );
}

#[test]
fn check_json_v2_structure() {
    // Structural guarantees tools rely on, independent of the golden's
    // exact bytes.
    let got = check_json(&["examples/programs/fig1.sl", "examples/programs/transfer.sl"]);
    assert!(
        got.starts_with("{\"schema\":\"semlock-audit/v2\","),
        "{got}"
    );
    assert!(got.contains("\"files\":["), "{got}");
    assert!(got.contains("\"ordering_audit\":["), "{got}");
    // One per-file object per input, v1 shape preserved.
    assert_eq!(got.matches("\"file\":").count(), 2, "{got}");
    assert_eq!(got.matches("\"diagnostics\":").count(), 2, "{got}");
    // The ordering-audit table carries the full site catalog with at
    // least the six seeded mutants the model checker must refute.
    for site in [
        "word.admit.cas_ok",
        "word.release.cas_ok",
        "wide.waiter.rmw",
        "wide.conflict.load",
        "wide.release.rmw",
        "wide.waiters.load",
    ] {
        assert!(
            got.contains(&format!("\"site\":\"{site}\"")),
            "{site} missing: {got}"
        );
    }
    let seeded = got.matches("\"mutant\":\"").count();
    assert!(seeded >= 6, "expected >= 6 seeded mutants, found {seeded}");
    // Every entry names its shipped ordering and claim.
    let entries = got.matches("\"site\":\"").count();
    assert_eq!(got.matches("\"ordering\":\"").count(), entries);
    assert_eq!(got.matches("\"claim\":\"").count(), entries);
}

#[test]
fn check_dump_tape_shows_both_tapes_and_pass_counts() {
    let out = Command::new(env!("CARGO_BIN_EXE_semlockc"))
        .arg("check")
        .arg("--dump-tape")
        .arg("--no-opt")
        .arg("examples/programs/fig1.sl")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("semlockc runs");
    assert!(out.status.success(), "exit {:?}", out.status.code());
    let got = String::from_utf8(out.stdout).expect("utf-8 output");
    // Per-section header with op counts and per-pass stats.
    assert!(got.contains("section fig1:"), "{got}");
    assert!(got.contains(" ops -> "), "{got}");
    assert!(got.contains("(fused "), "{got}");
    assert!(got.contains("hoisted "), "{got}");
    // Side-by-side columns, rendered ops on both sides.
    assert!(got.contains("pre-opt"), "{got}");
    assert!(got.contains("post-opt"), "{got}");
    assert!(got.contains("lock "), "{got}");
    assert!(got.contains("unlock_all"), "{got}");
}

#[test]
fn check_dump_tape_keeps_json_stdout_parseable() {
    // Under --json the dump goes to stderr so stdout stays the v2 document.
    let out = Command::new(env!("CARGO_BIN_EXE_semlockc"))
        .arg("check")
        .arg("--json")
        .arg("--dump-tape")
        .arg("examples/programs/fig1.sl")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("semlockc runs");
    assert!(out.status.success(), "exit {:?}", out.status.code());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 output");
    assert!(
        stdout.starts_with("{\"schema\":\"semlock-audit/v2\","),
        "{stdout}"
    );
    assert!(!stdout.contains("pre-opt"), "{stdout}");
    assert!(stderr.contains("pre-opt"), "{stderr}");
}
