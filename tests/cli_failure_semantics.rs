//! The `satverify check` exit-code contract, end to end through the
//! real binary: 0 verified, 1 proof rejected, 2 usage error,
//! 3 malformed input, 4 budget exhausted — plus the checkpoint/resume
//! workflow.

use std::path::PathBuf;
use std::process::{Command, Output};

use obs::json::{parse, Json};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_satverify")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin()).args(args).output().expect("binary runs")
}

fn tmp(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("satverify-fail-{}-{name}", std::process::id()));
    dir
}

fn write_tmp(name: &str, contents: &str) -> PathBuf {
    let path = tmp(name);
    std::fs::write(&path, contents).expect("write temp file");
    path
}

const XOR_SQUARE: &str = "p cnf 2 4\n1 2 0\n-1 -2 0\n1 -2 0\n-1 2 0\n";

/// Generates php(<holes>) and a verified proof for it via the CLI.
fn php_with_proof(holes: &str, tag: &str) -> (PathBuf, PathBuf) {
    let cnf = tmp(&format!("{tag}.cnf"));
    let proof = tmp(&format!("{tag}.ccp"));
    let out = run(&["gen", "php", holes, "--out", cnf.to_str().expect("utf8")]);
    assert!(out.status.success(), "{out:?}");
    let out = run(&[
        "solve",
        cnf.to_str().expect("utf8"),
        "--proof",
        proof.to_str().expect("utf8"),
    ]);
    assert_eq!(out.status.code(), Some(20), "{out:?}");
    (cnf, proof)
}

#[test]
fn the_four_check_outcomes_get_distinct_exit_codes() {
    let (cnf, proof) = php_with_proof("4", "codes");
    let cnf = cnf.to_str().expect("utf8");
    let proof = proof.to_str().expect("utf8");

    // 0: verified
    let out = run(&["check", cnf, proof]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("s VERIFIED"));

    // 1: proof rejected
    let bogus = write_tmp("codes-bogus.ccp", "99991 0\n");
    let out = run(&["check", cnf, bogus.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("s NOT VERIFIED"));

    // 3: malformed CNF
    let garbage = write_tmp("codes-garbage.cnf", "p cnf 2 1\n1 frobnicate 0\n");
    let out = run(&["check", garbage.to_str().expect("utf8"), proof]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2"), "{err}");
    assert!(err.contains("column"), "{err}");

    // 3: malformed proof (truncated binary varint)
    let truncated = tmp("codes-trunc.ccp");
    std::fs::write(&truncated, b"CCP1\x80").expect("write");
    let out = run(&["check", cnf, truncated.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("varint"),
        "{out:?}"
    );

    // 4: budget exhausted — no verdict, valid proof or not
    let out = run(&["check", cnf, proof, "--max-propagations", "1"]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("s UNKNOWN"), "{text}");
    assert!(!text.contains("s VERIFIED"), "{text}");
}

#[test]
fn usage_errors_exit_2() {
    let out = run(&["check", "only-one-arg"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let cnf = write_tmp("usage.cnf", XOR_SQUARE);
    let cnf = cnf.to_str().expect("utf8");
    let out = run(&["check", cnf, cnf, "--resume"]);
    assert_eq!(out.status.code(), Some(2), "--resume needs --checkpoint: {out:?}");
    let out = run(&["check", cnf, cnf, "--max-propagations", "lots"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn absurd_header_is_malformed_input_not_a_hang() {
    let (_, proof) = php_with_proof("3", "hdr");
    let huge = write_tmp("hdr-huge.cnf", "p cnf 99999999999 1\n1 0\n");
    let out = run(&[
        "check",
        huge.to_str().expect("utf8"),
        proof.to_str().expect("utf8"),
    ]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("maximum"), "{out:?}");
}

#[test]
fn timeout_zero_exhausts_immediately() {
    let (cnf, proof) = php_with_proof("3", "tmo");
    let out = run(&[
        "check",
        cnf.to_str().expect("utf8"),
        proof.to_str().expect("utf8"),
        "--timeout-ms",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");
}

#[test]
fn parallel_check_verifies_and_rejects_like_sequential() {
    let (cnf, proof) = php_with_proof("4", "par");
    let cnf = cnf.to_str().expect("utf8");
    let out = run(&["check", cnf, proof.to_str().expect("utf8"), "--parallel", "3"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let bogus = write_tmp("par-bogus.ccp", "99991 0\n");
    let out = run(&["check", cnf, bogus.to_str().expect("utf8"), "--parallel", "3"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

/// Extracts the `verification` object from a `--json` report file.
fn verification_of(path: &PathBuf) -> Json {
    let text = std::fs::read_to_string(path).expect("report written");
    let doc = parse(&text).expect("valid JSON");
    doc.get("verification").expect("verification section").clone()
}

#[test]
fn checkpointed_run_resumes_to_the_uninterrupted_report() {
    let (cnf, proof) = php_with_proof("4", "ckpt");
    let cnf = cnf.to_str().expect("utf8");
    let proof = proof.to_str().expect("utf8");

    // the reference: one uninterrupted run
    let ref_json = tmp("ckpt-ref.json");
    let out = run(&["check", cnf, proof, "--json", ref_json.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let reference = verification_of(&ref_json);

    // interrupted runs: growing budget, checkpoint carried between them
    let ckpt = tmp("ckpt-state.json");
    let final_json = tmp("ckpt-final.json");
    let mut interruptions = 0u32;
    let mut cap = 50u64;
    let final_verification = loop {
        let cap_text = cap.to_string();
        let out = run(&[
            "check",
            cnf,
            proof,
            "--max-propagations",
            &cap_text,
            "--checkpoint",
            ckpt.to_str().expect("utf8"),
            "--resume",
            "--json",
            final_json.to_str().expect("utf8"),
        ]);
        match out.status.code() {
            Some(0) => break verification_of(&final_json),
            Some(4) => {
                assert!(ckpt.exists(), "exhausted run left no checkpoint");
                interruptions += 1;
                cap += 50;
                assert!(interruptions < 1_000, "no forward progress");
            }
            other => panic!("unexpected exit {other:?}: {out:?}"),
        }
    };
    assert!(interruptions > 0, "budget never interrupted; test is vacuous");

    // identical modulo timing fields
    for field in [
        "num_original",
        "num_conflict_clauses",
        "num_checked",
        "proof_literals",
        "core_size",
    ] {
        assert_eq!(
            final_verification.get(field).and_then(Json::as_int),
            reference.get(field).and_then(Json::as_int),
            "field {field} diverged after resume"
        );
    }
}

#[test]
fn mismatched_checkpoint_is_a_usage_error() {
    let (cnf_a, proof_a) = php_with_proof("3", "mma");
    let (cnf_b, proof_b) = php_with_proof("4", "mmb");
    let ckpt = tmp("mm-state.json");
    // interrupt a run on instance A to produce a checkpoint
    let out = run(&[
        "check",
        cnf_a.to_str().expect("utf8"),
        proof_a.to_str().expect("utf8"),
        "--max-propagations",
        "5",
        "--checkpoint",
        ckpt.to_str().expect("utf8"),
    ]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    assert!(ckpt.exists());
    // resuming it against instance B must fail up front, not misverify —
    // and as a *usage* error (the caller passed the wrong inputs), not
    // malformed data
    let out = run(&[
        "check",
        cnf_b.to_str().expect("utf8"),
        proof_b.to_str().expect("utf8"),
        "--checkpoint",
        ckpt.to_str().expect("utf8"),
        "--resume",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("mismatch"),
        "{out:?}"
    );
}

#[test]
fn check_help_documents_the_exit_code_contract() {
    let out = run(&["check", "--help"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("EXIT CODES"), "{text}");
    for needle in [
        "s VERIFIED",
        "s NOT VERIFIED",
        "usage error",
        "malformed input",
        "s UNKNOWN",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in: {text}");
    }
}

#[test]
fn drat_and_trim_use_the_check_exit_codes() {
    let cnf = write_tmp("dt.cnf", XOR_SQUARE);
    let good = write_tmp("dt-good.ccp", "2 0\n-2 0\n0\n");
    let unproved = write_tmp("dt-unproved.ccp", "1 2 0\n0\n");
    let bad_cnf = write_tmp("dt-bad.cnf", "p cnf 2 1\n1 frobnicate 0\n");
    let bad_proof = write_tmp("dt-bad.ccp", "2 frobnicate 0\n");
    let missing = tmp("dt-missing.ccp");
    let trimmed = tmp("dt-trimmed.ccp");
    let [cnf, good, unproved, bad_cnf, bad_proof, missing, trimmed] =
        [&cnf, &good, &unproved, &bad_cnf, &bad_proof, &missing, &trimmed]
            .map(|p| p.to_str().expect("utf8"));

    let cases: [(&[&str], i32); 12] = [
        (&["drat", cnf, good], 0),
        (&["drat", cnf, unproved], 1),
        (&["drat", cnf], 2),
        (&["drat", cnf, missing], 3),
        (&["drat", bad_cnf, good], 3),
        (&["drat", cnf, bad_proof], 3),
        (&["trim", cnf, good, trimmed], 0),
        (&["trim", cnf, unproved, trimmed], 1),
        (&["trim", cnf, good], 2),
        (&["trim", cnf, missing, trimmed], 3),
        (&["trim", bad_cnf, good, trimmed], 3),
        (&["trim", cnf, bad_proof, trimmed], 3),
    ];
    for (args, code) in cases {
        let out = run(args);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {out:?}");
    }
    let usage = String::from_utf8_lossy(&run(&["help"]).stdout).into_owned();
    for command in ["satverify drat", "satverify trim"] {
        let entry = &usage[usage.find(command).expect("documented")..];
        let entry = &entry[..entry.find("\n\n").unwrap_or(entry.len())];
        assert!(entry.contains("exit codes"), "{entry}");
        assert!(entry.contains("3 malformed input"), "{entry}");
    }
}
