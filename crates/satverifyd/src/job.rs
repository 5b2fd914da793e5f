//! Job execution: turning one [`VerifyRequest`] into one [`JobResult`]
//! by running the exact pipeline `satverify check` runs —
//! [`proofver::verify_harnessed`] under a per-job [`proofver::Harness`].
//!
//! The input loaders are public so the CLI shares them: a proof file is
//! sniffed for the binary [`proofver::MAGIC`] header and decoded or
//! text-parsed accordingly.

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

use cnf::CnfFormula;
use proofver::{
    parse_drat, verify_drat_backward_harnessed, verify_drat_stream,
    verify_harnessed, ConflictClauseProof, DratOutcome, DratProof, Harness,
    Outcome, PropagatorChoice, StreamConfig, StreamOutcome, MAGIC,
};

use crate::protocol::{ErrorCode, JobResult, VerifyRequest};

/// Loads a DIMACS CNF file.
///
/// # Errors
///
/// A message naming the path and the underlying open/parse failure.
pub fn load_formula_file(path: &str) -> Result<CnfFormula, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    cnf::parse_dimacs(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
}

/// Loads a proof file, auto-detecting the binary format by its magic
/// header.
///
/// # Errors
///
/// A message naming the path and the underlying open/decode failure.
pub fn load_proof_file(path: &str) -> Result<ConflictClauseProof, String> {
    let mut file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut head = [0u8; 4];
    let n = file.read(&mut head).map_err(|e| format!("{path}: {e}"))?;
    let file = File::open(path).map_err(|e| format!("cannot reopen {path}: {e}"))?;
    if n == 4 && head == MAGIC {
        proofver::decode_proof(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
    } else {
        proofver::parse_proof(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
    }
}

/// Resolves the request's formula (inline text beats path; the
/// protocol layer guarantees exactly one is present).
fn resolve_formula(request: &VerifyRequest) -> Result<CnfFormula, String> {
    match (&request.formula, &request.formula_path) {
        (Some(text), _) => {
            cnf::parse_dimacs_str(text).map_err(|e| format!("inline formula: {e}"))
        }
        (None, Some(path)) => load_formula_file(path),
        (None, None) => Err("no formula given".into()),
    }
}

fn resolve_proof(request: &VerifyRequest) -> Result<ConflictClauseProof, String> {
    match (&request.proof, &request.proof_path) {
        (Some(text), _) => {
            proofver::parse_proof_str(text).map_err(|e| format!("inline proof: {e}"))
        }
        (None, Some(path)) => load_proof_file(path),
        (None, None) => Err("no proof given".into()),
    }
}

/// Resolves the request's proof as standard DRAT. Inline proofs are
/// text DRAT (the wire is newline-JSON, so raw binary cannot travel
/// inline); `proof_path` files may use either encoding.
fn resolve_drat(request: &VerifyRequest) -> Result<DratProof, String> {
    match (&request.proof, &request.proof_path) {
        (Some(text), _) => {
            parse_drat(text.as_bytes()).map_err(|e| format!("inline proof: {e}"))
        }
        (None, Some(path)) => {
            let bytes =
                std::fs::read(path).map_err(|e| format!("cannot open {path}: {e}"))?;
            parse_drat(&bytes).map_err(|e| format!("{path}: {e}"))
        }
        (None, None) => Err("no proof given".into()),
    }
}

/// Runs one verification job under `harness` and maps the three-way
/// [`Outcome`] onto the wire-level [`JobResult`]. Latency fields are
/// filled in by the server (it owns the submission timestamp).
///
/// # Errors
///
/// `(ErrorCode::InvalidInput, message)` when the formula or proof
/// cannot be loaded or parsed, or the mode string is unknown.
pub fn execute(
    request: &VerifyRequest,
    harness: &Harness,
) -> Result<JobResult, (ErrorCode, String)> {
    let invalid = |msg: String| (ErrorCode::InvalidInput, msg);
    let mode = request.check_mode().map_err(invalid)?;
    if request.stream {
        if !request.is_drat().map_err(invalid)? {
            return Err(invalid(
                "stream requires proof_format \"drat\"".into(),
            ));
        }
        return execute_stream(request, harness);
    }
    if request.is_drat().map_err(invalid)? {
        return execute_drat(request, harness);
    }
    let formula = resolve_formula(request).map_err(invalid)?;
    let proof = resolve_proof(request).map_err(invalid)?;
    let steps_total = proof.len() as u64;
    let mut result = JobResult {
        id: request.id.clone(),
        steps_total: Some(steps_total),
        ..JobResult::default()
    };
    match verify_harnessed(&formula, &proof, mode, harness) {
        Outcome::Verified(v) => {
            result.outcome = "verified".into();
            result.steps_checked = Some(v.report.num_checked as u64);
            result.propagations = Some(v.report.propagations);
        }
        Outcome::Rejected { step, error } => {
            result.outcome = "rejected".into();
            result.rejected_step = step.map(|s| s as u64);
            result.detail = Some(error.to_string());
        }
        Outcome::Exhausted { reason, progress, checkpoint: _ } => {
            result.outcome = "exhausted".into();
            result.exhaust_reason = Some(reason.as_str().to_string());
            result.steps_checked = Some(progress.steps_checked as u64);
            result.propagations = Some(progress.propagations);
        }
    }
    Ok(result)
}

/// The DRAT branch of [`execute`]: parse the standard-format proof and
/// check it backward with core-first marking. The wire result carries
/// the same three-way outcome; `steps_total` counts addition steps and
/// `steps_checked` the marked ones.
fn execute_drat(
    request: &VerifyRequest,
    harness: &Harness,
) -> Result<JobResult, (ErrorCode, String)> {
    let invalid = |msg: String| (ErrorCode::InvalidInput, msg);
    let formula = resolve_formula(request).map_err(invalid)?;
    let proof = resolve_drat(request).map_err(invalid)?;
    let mut result = JobResult {
        id: request.id.clone(),
        steps_total: Some(proof.num_adds() as u64),
        ..JobResult::default()
    };
    match verify_drat_backward_harnessed(
        &formula,
        &proof,
        harness,
        PropagatorChoice::ArenaWatched,
    ) {
        DratOutcome::Verified(v) => {
            result.outcome = "verified".into();
            result.steps_checked = Some(v.num_checked as u64);
            result.propagations = Some(v.propagations);
        }
        DratOutcome::Rejected { step, error } => {
            result.outcome = "rejected".into();
            result.rejected_step = step.map(|s| s as u64);
            result.detail = Some(error.to_string());
        }
        DratOutcome::Exhausted { reason, progress } => {
            result.outcome = "exhausted".into();
            result.exhaust_reason = Some(reason.as_str().to_string());
            result.steps_checked = Some(progress.steps_checked as u64);
            result.propagations = Some(progress.propagations);
        }
    }
    Ok(result)
}

/// The streaming branch of [`execute`]: check a server-local binary
/// DRAT file with the windowed bounded-memory verifier. The budget's
/// `max_memory_bytes` (request or server default) becomes the streaming
/// residency cap; other budget fields bound the run as usual. Inline
/// proofs cannot stream (the wire is newline-JSON, and the point of
/// streaming is not holding the proof in memory), so `proof_path` is
/// required.
fn execute_stream(
    request: &VerifyRequest,
    harness: &Harness,
) -> Result<JobResult, (ErrorCode, String)> {
    let invalid = |msg: String| (ErrorCode::InvalidInput, msg);
    let Some(path) = &request.proof_path else {
        return Err(invalid(
            "stream requires `proof_path` (a server-local binary DRAT \
             file); inline proofs cannot stream"
                .into(),
        ));
    };
    let formula = resolve_formula(request).map_err(invalid)?;
    let mut config = StreamConfig::default();
    if harness.budget.max_arena_bytes != u64::MAX {
        config.memory_budget = harness.budget.max_arena_bytes;
    }
    let mut result = JobResult {
        id: request.id.clone(),
        ..JobResult::default()
    };
    match verify_drat_stream(
        &formula,
        Path::new(path),
        harness,
        &config,
        PropagatorChoice::ArenaWatched,
        None,
        None,
    ) {
        StreamOutcome::Verified(v) => {
            result.outcome = "verified".into();
            result.steps_total = Some(v.total_adds);
            result.steps_checked = Some(v.num_checked as u64);
            result.propagations = Some(v.propagations);
        }
        StreamOutcome::Rejected { step, error } => {
            result.outcome = "rejected".into();
            result.rejected_step = step.map(|s| s as u64);
            result.detail = Some(error.to_string());
        }
        StreamOutcome::Exhausted { reason, progress, checkpointed: _ } => {
            result.outcome = "exhausted".into();
            result.exhaust_reason = Some(reason.as_str().to_string());
            result.steps_checked = Some(progress.steps_checked as u64);
            result.propagations = Some(progress.propagations);
        }
        StreamOutcome::Failed(e) => {
            return Err(invalid(format!("streaming check failed: {e}")));
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proofver::Budget;

    const XOR_SQUARE: &str = "p cnf 2 4\n1 2 0\n-1 -2 0\n1 -2 0\n-1 2 0\n";
    const XOR_PROOF: &str = "2 0\n-2 0\n0\n";

    fn inline(formula: &str, proof: &str) -> VerifyRequest {
        VerifyRequest {
            formula: Some(formula.into()),
            proof: Some(proof.into()),
            ..VerifyRequest::default()
        }
    }

    #[test]
    fn good_proof_verifies() {
        let result = execute(&inline(XOR_SQUARE, XOR_PROOF), &Harness::default())
            .expect("valid inputs");
        assert_eq!(result.outcome, "verified");
        assert_eq!(result.steps_total, Some(3), "two cuts plus the refutation");
    }

    #[test]
    fn bogus_proof_rejects_with_step() {
        let result = execute(
            &inline(XOR_SQUARE, "1 2 0\n0\n"),
            &Harness::default(),
        )
        .expect("valid inputs");
        assert_eq!(result.outcome, "rejected");
        assert!(result.detail.is_some());
    }

    #[test]
    fn starved_budget_exhausts_never_verdicts() {
        let harness =
            Harness::with_budget(Budget::unlimited().max_propagations(1));
        let result =
            execute(&inline(XOR_SQUARE, XOR_PROOF), &harness).expect("valid inputs");
        assert_eq!(result.outcome, "exhausted");
        assert_eq!(result.exhaust_reason.as_deref(), Some("propagations"));
    }

    fn inline_drat(formula: &str, proof: &str) -> VerifyRequest {
        VerifyRequest {
            proof_format: Some("drat".into()),
            ..inline(formula, proof)
        }
    }

    #[test]
    fn drat_jobs_run_the_backward_checker() {
        // a deletion step would be rejected by the native parser: this
        // exercises the DRAT routing end to end
        let result = execute(
            &inline_drat(XOR_SQUARE, "2 0\nd 1 2 0\n-2 0\n0\n"),
            &Harness::default(),
        )
        .expect("valid inputs");
        assert_eq!(result.outcome, "verified");
        assert_eq!(result.steps_total, Some(3), "additions only");
    }

    #[test]
    fn drat_jobs_reject_bad_proofs_and_malformed_input() {
        let rejected = execute(
            &inline_drat(XOR_SQUARE, "5 6 0\n"),
            &Harness::default(),
        )
        .expect("valid inputs");
        assert_eq!(rejected.outcome, "rejected");
        let malformed = execute(
            &inline_drat(XOR_SQUARE, "2 0\nbogus 0\n"),
            &Harness::default(),
        );
        assert!(matches!(malformed, Err((ErrorCode::InvalidInput, _))));
        let bad_format = execute(
            &VerifyRequest {
                proof_format: Some("lisp".into()),
                ..inline(XOR_SQUARE, XOR_PROOF)
            },
            &Harness::default(),
        );
        assert!(matches!(bad_format, Err((ErrorCode::InvalidInput, _))));
    }

    #[test]
    fn drat_jobs_respect_budgets() {
        let harness =
            Harness::with_budget(Budget::unlimited().max_propagations(1));
        let result = execute(
            &inline_drat(XOR_SQUARE, "2 0\n-2 0\n0\n"),
            &harness,
        )
        .expect("valid inputs");
        assert_eq!(result.outcome, "exhausted");
        assert_eq!(result.exhaust_reason.as_deref(), Some("propagations"));
    }

    #[test]
    fn garbage_inputs_are_invalid_not_verdicts() {
        let bad_formula = execute(&inline("p cnf x y\n", "0\n"), &Harness::default());
        assert!(matches!(bad_formula, Err((ErrorCode::InvalidInput, _))));
        let bad_proof = execute(&inline(XOR_SQUARE, "not a proof"), &Harness::default());
        assert!(matches!(bad_proof, Err((ErrorCode::InvalidInput, _))));
        let missing_file = execute(
            &VerifyRequest {
                formula_path: Some("/nonexistent/x.cnf".into()),
                proof: Some("0\n".into()),
                ..VerifyRequest::default()
            },
            &Harness::default(),
        );
        assert!(matches!(missing_file, Err((ErrorCode::InvalidInput, _))));
    }
}
