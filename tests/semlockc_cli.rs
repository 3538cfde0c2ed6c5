//! CLI tests of `semlockc check`: the machine-readable `--json` output is
//! a stable contract (`semlock-audit/v2`), pinned by a golden file; the
//! `--dump-tape` listing and the flag grammar are pinned structurally.
//!
//! v2 wraps the v1 per-file array in a top-level object: `schema` tag,
//! `files` (the unchanged v1 per-file objects), and `ordering_audit` (the
//! runtime's machine-checked memory-ordering table, the same
//! `semlock::mech::ORDERING_AUDIT` contract the `model` crate's
//! interleaving checker verifies mutant-by-mutant).

use std::process::Command;

fn semlockc(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_semlockc"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("semlockc runs")
}

fn check_json(args: &[&str]) -> String {
    let out = semlockc(&[&["check", "--json"], args].concat());
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
fn check_dump_tape_shows_the_tape_that_runs() {
    let out = semlockc(&[
        "check",
        "--dump-tape",
        "--no-opt",
        "examples/programs/fig1.sl",
    ]);
    assert!(out.status.success(), "exit {:?}", out.status.code());
    let got = String::from_utf8(out.stdout).expect("utf-8 output");
    // Per-section header with the op count, then one `pc: op` column.
    let header = got
        .lines()
        .find(|l| l.contains("section fig1: "))
        .unwrap_or_else(|| panic!("no section header: {got}"));
    let n: usize = header
        .rsplit_once(": ")
        .and_then(|(_, rest)| rest.strip_suffix(" ops"))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("header is not `section <name>: <n> ops`: {header}"));
    let ops: Vec<&str> = got.lines().filter(|l| l.starts_with("  ")).collect();
    assert_eq!(ops.len(), n, "{got}");
    for (pc, line) in ops.iter().enumerate() {
        assert!(line.trim_start().starts_with(&format!("{pc}: ")), "{line}");
        assert!(!line.contains(" | "), "two columns: {line}");
    }
    assert!(got.contains("lock "), "{got}");
    assert!(got.contains("unlock_all"), "{got}");
}

#[test]
fn check_dump_tape_keeps_json_stdout_parseable() {
    // Under --json the dump goes to stderr so stdout stays the v2 document.
    let out = semlockc(&[
        "check",
        "--json",
        "--dump-tape",
        "examples/programs/fig1.sl",
    ]);
    assert!(out.status.success(), "exit {:?}", out.status.code());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 output");
    assert!(
        stdout.starts_with("{\"schema\":\"semlock-audit/v2\","),
        "{stdout}"
    );
    assert!(!stdout.contains("section fig1:"), "{stdout}");
    assert!(stderr.contains("section fig1: "), "{stderr}");
    assert!(stderr.contains("lock "), "{stderr}");
    assert!(stderr.contains("unlock_all"), "{stderr}");
}

#[test]
fn check_flags_mean_the_same_in_either_order() {
    let file = "examples/programs/fig1.sl";
    for flag in ["--json", "--dump-tape"] {
        let after = semlockc(&["--check", flag, file]);
        let before = semlockc(&[flag, "--check", file]);
        assert!(after.status.success(), "--check {flag}: {after:?}");
        assert!(before.status.success(), "{flag} --check: {before:?}");
        assert_eq!(before.stdout, after.stdout, "{flag}");
        assert_eq!(before.stderr, after.stderr, "{flag}");
    }
}

#[test]
fn check_only_flags_are_refused_in_compile_mode() {
    for flag in ["--json", "--dump-tape"] {
        let out = semlockc(&[flag, "examples/programs/fig1.sl"]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 output");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains("check"),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag} printed a compilation");
    }
}
