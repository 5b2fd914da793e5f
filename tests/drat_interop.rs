//! Standard-format interop through the real binary: DRAT proofs
//! produced outside the native pipeline (text and binary, with
//! deletions) verify via `check --proof-format drat`, the emitted LRAT
//! re-validates with `satverify lrat`, the emitted trimmed DRAT
//! re-verifies, malformed fixtures fail with exit 3 and a precise
//! offset, and the flag surface obeys the usage contract.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_satverify")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin()).args(args).output().expect("binary runs")
}

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
        .to_str()
        .expect("utf8")
        .to_string()
}

fn tmp(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("satverify-drat-{}-{name}", std::process::id()));
    dir
}

#[test]
fn text_drat_with_deletions_verifies() {
    let out = run(&[
        "check",
        &fixture("xor.cnf"),
        &fixture("xor.drat"),
        "--proof-format",
        "drat",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("s VERIFIED"), "{text}");
    assert!(text.contains("RUP"), "{text}");
}

#[test]
fn binary_drat_with_deletions_verifies() {
    let out = run(&[
        "check",
        &fixture("xor.cnf"),
        &fixture("xor_binary.drat"),
        "--proof-format",
        "drat",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("s VERIFIED"));
}

#[test]
fn emitted_lrat_and_trimmed_proof_revalidate() {
    let lrat = tmp("out.lrat");
    let trimmed = tmp("out-trimmed.drat");
    let out = run(&[
        "check",
        &fixture("xor.cnf"),
        &fixture("xor.drat"),
        "--proof-format",
        "drat",
        "--emit-lrat",
        lrat.to_str().expect("utf8"),
        "--emit-trimmed",
        trimmed.to_str().expect("utf8"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // the LRAT certificate replays under the in-repo strict checker
    let out = run(&["lrat", &fixture("xor.cnf"), lrat.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("s VERIFIED"));

    // the trimmed proof is standalone valid DRAT
    let out = run(&[
        "check",
        &fixture("xor.cnf"),
        trimmed.to_str().expect("utf8"),
        "--proof-format",
        "drat",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn binary_lrat_emission_revalidates() {
    let lrat = tmp("out-binary.lrat");
    let out = run(&[
        "check",
        &fixture("xor.cnf"),
        &fixture("xor_binary.drat"),
        "--proof-format",
        "drat",
        "--emit-lrat",
        lrat.to_str().expect("utf8"),
        "--emit-binary",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let bytes = std::fs::read(&lrat).expect("lrat written");
    assert_eq!(bytes.first(), Some(&b'a'), "binary LRAT starts with 'a'");
    let out = run(&["lrat", &fixture("xor.cnf"), lrat.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn malformed_fixtures_fail_with_exact_offsets() {
    // garbage step-prefix byte: 'x' at byte 3
    let out = run(&[
        "check",
        &fixture("xor.cnf"),
        &fixture("garbage_prefix.drat"),
        "--proof-format",
        "drat",
    ]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("0x78") && err.contains("byte 3"), "{err}");

    // truncated mid-step: input ends at byte 5
    let out = run(&[
        "check",
        &fixture("xor.cnf"),
        &fixture("truncated.drat"),
        "--proof-format",
        "drat",
    ]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("end of input") && err.contains("byte 5"), "{err}");
}

#[test]
fn deleting_a_missing_clause_rejects_with_position() {
    let out = run(&[
        "check",
        &fixture("xor.cnf"),
        &fixture("delete_missing.drat"),
        "--proof-format",
        "drat",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("s NOT VERIFIED"), "{text}");
    assert!(text.contains("position 2"), "deletion is on line 2: {text}");
}

#[test]
fn budget_exhaustion_is_exit_4_in_drat_mode() {
    let out = run(&[
        "check",
        &fixture("xor.cnf"),
        &fixture("xor.drat"),
        "--proof-format",
        "drat",
        "--max-propagations",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("s UNKNOWN"), "{text}");
    assert!(!text.contains("s VERIFIED"), "{text}");
}

#[test]
fn drat_mode_flag_surface_is_policed() {
    let cnf = fixture("xor.cnf");
    let drat = fixture("xor.drat");
    // unresumable/unparallelisable: these are usage errors, not silently
    // ignored knobs
    for extra in [
        vec!["--all"],
        vec!["--parallel", "2"],
        vec!["--checkpoint", "/tmp/cp.json"],
    ] {
        let mut args =
            vec!["check", &cnf, &drat, "--proof-format", "drat"];
        args.extend(extra.iter());
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {out:?}");
    }
    // emit flags require drat mode
    let out = run(&["check", &cnf, &drat, "--emit-lrat", "/tmp/x.lrat"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // unknown format name
    let out = run(&["check", &cnf, &drat, "--proof-format", "tracecheck"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn native_proofs_are_rejected_by_the_drat_grammar_only_if_malformed() {
    // a native adds-only text proof is also valid text DRAT: the
    // formats deliberately overlap (FORMATS.md, compatibility table)
    let proof = tmp("native-adds.drat");
    std::fs::write(&proof, "2 0\n-2 0\n0\n").expect("write");
    let out = run(&[
        "check",
        &fixture("xor.cnf"),
        proof.to_str().expect("utf8"),
        "--proof-format",
        "drat",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn lrat_subcommand_rejects_bad_certificates() {
    // hints that never reach a conflict must not pass
    let lrat = tmp("bogus.lrat");
    std::fs::write(&lrat, "5 2 0 1 0\n").expect("write");
    let out = run(&["lrat", &fixture("xor.cnf"), lrat.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("s NOT VERIFIED"));

    // garbage is malformed, not a verdict
    let garbage = tmp("garbage.lrat");
    std::fs::write(&garbage, "5 two 0 1 0\n").expect("write");
    let out =
        run(&["lrat", &fixture("xor.cnf"), garbage.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
}
