//! Verification of proofs of unsatisfiability for CNF formulas.
//!
//! An independent implementation of **E. Goldberg and Y. Novikov,
//! "Verification of Proofs of Unsatisfiability for CNF Formulas", DATE
//! 2003** — the origin of clausal (RUP-style) proof checking.
//!
//! A CDCL SAT solver that answers UNSAT is only as trustworthy as its
//! code; this crate checks the answer independently. The proof object is
//! a [`ConflictClauseProof`]: the chronologically ordered sequence of
//! conflict clauses the solver recorded. To check a clause `C`, falsify
//! its literals and run Boolean constraint propagation over the original
//! formula plus the earlier conflict clauses; a conflict must follow.
//!
//! Two procedures are provided:
//!
//! * [`verify_all`] — the paper's `Proof_verification1`: check every
//!   conflict clause, newest first;
//! * [`verify`] — the paper's `Proof_verification2`: check only clauses
//!   *marked* as contributing to the final conflict, and extract an
//!   [`UnsatCore`] of the original formula from the marks as a
//!   by-product.
//!
//! The crate also implements the representation the paper compares
//! against: [`ResolutionProof`] graphs with their own checker (§5), plus
//! proof trimming ([`verify_and_trim`]) and text/binary proof formats.
//!
//! # Examples
//!
//! Verify a hand-written proof and extract the core:
//!
//! ```
//! use cnf::{Clause, CnfFormula};
//! use proofver::verify;
//!
//! // the XOR square is unsatisfiable
//! let f = CnfFormula::from_dimacs_clauses(&[
//!     vec![1, 2], vec![-1, -2], vec![1, -2], vec![-1, 2],
//! ]);
//! let proof = vec![
//!     Clause::from_dimacs(&[2]),
//!     Clause::from_dimacs(&[-2]),
//! ].into();
//! let result = verify(&f, &proof)?;
//! println!("{}", result.report);
//! assert_eq!(result.core.len(), 4);
//! # Ok::<(), proofver::VerifyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binary;
mod checker;
mod core_extract;
mod deletion;
mod drat;
mod error;
mod format;
mod harness;
mod kernel;
mod lrat;
mod parallel;
mod proof;
mod rat;
mod report;
mod resolution;
mod stats;
mod stream;
mod trim;

pub use binary::{
    decode_proof, encode_proof, encode_proof_to_vec, DecodeProofError, MAGIC,
};
pub use bcp::PropagatorChoice;
pub use checker::{
    verify, verify_all, verify_implication, CheckMode, Checker, Verification,
};
pub use core_extract::UnsatCore;
pub use deletion::{
    AnnotatedProof, AnnotatedVerification, ProofClauseRef, ProofEvent,
};
pub use drat::{
    drat_to_string, encode_drat, encode_drat_to_vec, is_binary_drat, parse_drat,
    parse_drat_binary, parse_drat_text, trim_drat, verify_drat_backward, write_drat,
    verify_drat_backward_harnessed, DeletionIndex, DratError, DratOutcome, DratProof,
    DratStep, DratStepKind, DratVerification, ParseDratError,
};
pub use error::VerifyError;
pub use lrat::{
    check_lrat, encode_lrat, encode_lrat_to_vec, is_binary_lrat, lrat_to_string,
    parse_lrat, parse_lrat_binary, parse_lrat_text, write_lrat, LratAdd,
    LratError, LratLine, LratProof, LratStats, ParseLratError,
};
pub use harness::{
    formula_fingerprint, proof_fingerprint, resume_verification,
    resume_verification_with_engine, verify_harnessed,
    verify_harnessed_with_engine, Budget, CancelToken, Checkpoint,
    CheckpointError, ExhaustReason, FaultPlan, Gate, Harness, Outcome, Progress,
    DEFAULT_SLICE_RETRIES,
};
pub use parallel::{
    verify_all_parallel, verify_all_parallel_harnessed,
    verify_all_parallel_harnessed_with_engine,
};
pub use format::{
    parse_proof, parse_proof_str, to_proof_string, write_proof, ParseProofError,
};
pub use proof::{ConflictClauseProof, Terminal};
pub use rat::{check_drat_steps, verify_drat, DratStats};
pub use report::VerificationReport;
pub use stats::ProofStats;
pub use resolution::{
    resolution_proof_from_chains, ChainRef, CheckedResolution, NodeId,
    ResolutionError, ResolutionProof,
};
pub use stream::{
    chain_workload, verify_drat_stream, verify_drat_stream_bytes,
    StreamCheckpoint, StreamConfig, StreamError, StreamOutcome,
    StreamVerification,
};
pub use trim::{trim_proof, verify_and_trim};
