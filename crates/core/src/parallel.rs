//! Parallel all-clause proof checking.
//!
//! `Proof_verification1` checks every conflict clause, and each check is
//! independent given the clause arena — an embarrassingly parallel
//! workload the paper's 500 MHz single-core machine could not exploit.
//! Each worker owns a private arena copy and checks a contiguous slice
//! of the proof; per-worker marks are unioned for the core (per-check
//! marking does not depend on check order, so the union equals the
//! sequential result).
//!
//! The harnessed entry point ([`verify_all_parallel_harnessed`]) adds
//! fault tolerance: worker panics are isolated (a crashed slice is
//! retried sequentially a bounded number of times, then the whole run
//! degrades to one sequential pass), budgets and cancellation are
//! enforced per worker, and a run that stops early reports
//! [`Outcome::Exhausted`] instead of a fabricated verdict.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::Instant;

use bcp::{ArenaWatchedPropagator, Propagator, PropagatorChoice, WatchedPropagator};
use cnf::CnfFormula;

use crate::checker::{CheckMode, Checker, Verification, WorkerOutcome};
use crate::core_extract::UnsatCore;
use crate::error::VerifyError;
use crate::harness::{ExhaustReason, Harness, Outcome, Progress};
use crate::proof::ConflictClauseProof;
use crate::report::VerificationReport;

/// Registry handles for the parallel checker's fault counters.
struct ParObsHandles {
    worker_panics: obs::metrics::Counter,
    slice_retries: obs::metrics::Counter,
    degraded: obs::metrics::Counter,
}

fn par_obs_handles() -> &'static ParObsHandles {
    static HANDLES: OnceLock<ParObsHandles> = OnceLock::new();
    HANDLES.get_or_init(|| ParObsHandles {
        worker_panics: obs::metrics::counter("proofver.par.worker_panics"),
        slice_retries: obs::metrics::counter("proofver.par.slice_retries"),
        degraded: obs::metrics::counter("proofver.par.degraded"),
    })
}

/// Verifies `proof` like [`verify_all`](crate::verify_all), but with
/// `num_threads` workers checking disjoint slices of the proof in
/// parallel. Marks (and therefore the unsatisfiable core) are the union
/// of the workers' marks — identical to the sequential all-clause
/// core. Memory grows by one arena copy per worker, and wall-clock
/// gains require actual hardware parallelism (a single-core host pays a
/// small scheduling overhead instead).
///
/// A panicking worker no longer aborts the run: its slice is retried
/// sequentially (see [`verify_all_parallel_harnessed`] for the full
/// fault-tolerance contract).
///
/// # Errors
///
/// See [`verify_all`](crate::verify_all); if several slices contain
/// failures, the error with the largest step index is reported (matching
/// the sequential reverse-chronological order).
///
/// # Panics
///
/// Panics only when the checker itself panics persistently — i.e. the
/// panic survives both the bounded sequential retries and the full
/// sequential fallback, which indicates a checker bug rather than a bad
/// proof.
pub fn verify_all_parallel(
    formula: &CnfFormula,
    proof: &ConflictClauseProof,
    num_threads: usize,
) -> Result<Verification, VerifyError> {
    match verify_all_parallel_harnessed(
        formula,
        proof,
        num_threads,
        &Harness::default(),
    ) {
        Outcome::Verified(v) => Ok(v),
        Outcome::Rejected { error, .. } => Err(error),
        // With an unlimited default budget and no cancellation the only
        // possible exhaustion is a persistent worker failure.
        Outcome::Exhausted { reason, .. } => {
            panic!("checker worker panicked ({reason})")
        }
    }
}

/// [`verify_all_parallel`] under a [`Harness`]: per-worker budgets, a
/// shared deadline and cancellation token, panic isolation with bounded
/// sequential retries, and a parallel→sequential degradation ladder.
///
/// Fault-tolerance contract, in order:
///
/// 1. each worker runs under `catch_unwind`; a panic marks only its
///    slice as failed;
/// 2. each failed slice is retried *sequentially* (in the caller's
///    thread) up to [`Harness::max_slice_retries`] times;
/// 3. if any slice still fails, the whole run degrades to one sequential
///    all-clause pass (without fault injection);
/// 4. if even the sequential pass panics, the result is
///    [`Outcome::Exhausted`] with [`ExhaustReason::WorkerFailure`] — a
///    missing verdict, never a fabricated one.
///
/// Budget semantics: the deterministic caps of [`Harness::budget`] apply
/// *per worker*; the deadline and cancellation token are shared. A
/// budget-interrupted parallel run reports `Exhausted` without a
/// checkpoint (checkpoints are sequential-only).
#[must_use]
pub fn verify_all_parallel_harnessed(
    formula: &CnfFormula,
    proof: &ConflictClauseProof,
    num_threads: usize,
    harness: &Harness,
) -> Outcome {
    parallel_harnessed_generic::<ArenaWatchedPropagator>(
        formula,
        proof,
        num_threads,
        harness,
    )
}

/// [`verify_all_parallel_harnessed`] on an explicitly chosen BCP engine.
/// Every worker (and the sequential fallback) runs the same engine.
#[must_use]
pub fn verify_all_parallel_harnessed_with_engine(
    formula: &CnfFormula,
    proof: &ConflictClauseProof,
    num_threads: usize,
    harness: &Harness,
    engine: PropagatorChoice,
) -> Outcome {
    match engine {
        PropagatorChoice::Watched => parallel_harnessed_generic::<WatchedPropagator>(
            formula,
            proof,
            num_threads,
            harness,
        ),
        PropagatorChoice::ArenaWatched => {
            parallel_harnessed_generic::<ArenaWatchedPropagator>(
                formula,
                proof,
                num_threads,
                harness,
            )
        }
    }
}

fn parallel_harnessed_generic<P: Propagator>(
    formula: &CnfFormula,
    proof: &ConflictClauseProof,
    num_threads: usize,
    harness: &Harness,
) -> Outcome {
    let start = Instant::now();
    let run_span = obs::span!("proofver.par.verify");
    let num_threads = num_threads.max(1).min(proof.len().max(1));
    let budget = &harness.budget;
    let deadline = budget.timeout.map(|t| start + t);
    let cancel = harness.cancel.flag();

    // Memory cap: the run needs one arena copy per worker plus the
    // terminal checker's. If that does not fit but a single copy does,
    // degrade to a sequential pass instead of failing.
    let probe = Checker::<P>::with_engine(formula, proof);
    let arena_bytes = probe.arena_bytes();
    let copies = num_threads as u64 + 1;
    if arena_bytes.saturating_mul(copies) > budget.max_arena_bytes {
        if arena_bytes > budget.max_arena_bytes {
            return Outcome::Exhausted {
                reason: ExhaustReason::Memory,
                progress: Progress {
                    steps_total: proof.len(),
                    ..Progress::default()
                },
                checkpoint: None,
            };
        }
        if obs::metrics::recording() {
            par_obs_handles().degraded.inc();
        }
        run_span.finish();
        return sequential_fallback(formula, proof, harness, Some(probe));
    }

    // terminal / refutation check first (cheap, single-threaded)
    let terminal_span = obs::span!("proofver.par.terminal");
    let terminal = probe.check_terminal_budgeted(budget, cancel, deadline);
    terminal_span.finish();
    let mut spent_propagations = 0u64;
    let mut spent_clause_visits = 0u64;
    let terminal_marks = match terminal {
        WorkerOutcome::Done { marks, propagations, clause_visits, .. } => {
            spent_propagations += propagations;
            spent_clause_visits += clause_visits;
            marks
        }
        WorkerOutcome::Failed(error) => {
            return Outcome::Rejected { step: error.step(), error }
        }
        WorkerOutcome::Interrupted(stopped) => {
            return Outcome::Exhausted {
                reason: stopped.into(),
                progress: Progress {
                    steps_total: proof.len(),
                    ..Progress::default()
                },
                checkpoint: None,
            }
        }
    };

    // slice the steps contiguously; a trailing empty clause is covered
    // by the terminal check above, like in the sequential procedures
    let checkable = match proof.clauses().last() {
        Some(c) if c.is_empty() => proof.len() - 1,
        _ => proof.len(),
    };
    let chunk = checkable.div_ceil(num_threads).max(1);
    let slices: Vec<Range<usize>> = (0..num_threads)
        .map(|t| t * chunk..((t + 1) * chunk).min(checkable))
        .filter(|s| !s.is_empty())
        .collect();

    if obs::metrics::recording() {
        obs::metrics::gauge("proofver.par.workers").set(slices.len() as i64);
        let slice_len = obs::metrics::histogram("proofver.par.slice_clauses");
        for s in &slices {
            slice_len.record(s.len() as u64);
        }
    }

    // Fan out. `join()` hands back `Err(payload)` for a panicked worker
    // instead of unwinding the whole scope — panic isolation.
    let run_slice = |slice_index: usize, steps: Range<usize>| {
        let _span = obs::span!("proofver.par.worker");
        let starved = harness.faults.before_slice(slice_index);
        Checker::<P>::with_engine(formula, proof)
            .check_steps_budgeted(steps, budget, cancel, deadline, starved)
    };
    let attempts: Vec<std::thread::Result<WorkerOutcome>> =
        crossbeam::scope(|scope| {
            let handles: Vec<_> = slices
                .iter()
                .enumerate()
                .map(|(i, steps)| {
                    let steps = steps.clone();
                    scope.spawn(move |_| run_slice(i, steps))
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        })
        .expect("crossbeam scope");

    // merge: retry panicked slices sequentially, propagate the largest-
    // step failure, keep exhaustion distinct from both
    let mut merged_marks = vec![false; formula.num_clauses() + proof.len()];
    let mut num_checked = 0usize;
    let mut worst: Option<VerifyError> = None;
    let mut interrupted: Option<ExhaustReason> = None;
    for (i, attempt) in attempts.into_iter().enumerate() {
        let outcome = match attempt {
            Ok(outcome) => outcome,
            Err(_panic) => {
                if obs::metrics::recording() {
                    par_obs_handles().worker_panics.inc();
                }
                match retry_slice(i, &slices[i], harness, &run_slice) {
                    Some(outcome) => outcome,
                    None => {
                        // the slice failed every retry: degrade the whole
                        // run to one sequential pass
                        if obs::metrics::recording() {
                            par_obs_handles().degraded.inc();
                        }
                        run_span.finish();
                        return sequential_fallback::<P>(
                            formula, proof, harness, None,
                        );
                    }
                }
            }
        };
        match outcome {
            WorkerOutcome::Done {
                marks,
                checked,
                propagations,
                clause_visits,
            } => {
                for (m, bit) in merged_marks.iter_mut().zip(&marks) {
                    *m |= *bit;
                }
                num_checked += checked;
                spent_propagations += propagations;
                spent_clause_visits += clause_visits;
            }
            WorkerOutcome::Failed(e) => {
                let step_of = |err: &VerifyError| err.step().unwrap_or(0);
                if worst.as_ref().is_none_or(|w| step_of(w) < step_of(&e)) {
                    worst = Some(e);
                }
            }
            WorkerOutcome::Interrupted(stopped) => {
                interrupted.get_or_insert(stopped.into());
            }
        }
    }
    // A completed check that found a bad clause is conclusive evidence
    // against the proof even if other slices were interrupted; an
    // interruption alone yields no verdict at all.
    if let Some(error) = worst {
        run_span.finish();
        return Outcome::Rejected { step: error.step(), error };
    }
    if let Some(reason) = interrupted {
        run_span.finish();
        return Outcome::Exhausted {
            reason,
            progress: Progress {
                steps_checked: num_checked,
                steps_total: proof.len(),
                propagations: spent_propagations,
                clause_visits: spent_clause_visits,
            },
            checkpoint: None,
        };
    }
    // include the terminal check's marks
    for (m, bit) in merged_marks.iter_mut().zip(&terminal_marks) {
        *m |= *bit;
    }

    let core_indices: Vec<usize> =
        (0..formula.num_clauses()).filter(|&i| merged_marks[i]).collect();
    let core = UnsatCore::new(core_indices, formula.num_clauses());
    let marked_steps: Vec<bool> =
        merged_marks[formula.num_clauses()..].to_vec();
    let report = VerificationReport {
        num_original: formula.num_clauses(),
        num_conflict_clauses: proof.len(),
        num_checked,
        proof_literals: proof.num_literals(),
        core_size: core.len(),
        verify_time: start.elapsed(),
        propagations: spent_propagations,
        clause_visits: spent_clause_visits,
    };
    run_span.finish();
    Outcome::Verified(Verification { report, core, marked_steps })
}

/// Retries one panicked slice in the caller's thread, up to the
/// harness's retry bound, still routing through the fault hook (an
/// injected fault with a finite attempt count heals and the retry
/// succeeds). `None` means every retry panicked too.
fn retry_slice(
    slice_index: usize,
    steps: &Range<usize>,
    harness: &Harness,
    run_slice: &impl Fn(usize, Range<usize>) -> WorkerOutcome,
) -> Option<WorkerOutcome> {
    for _ in 0..harness.max_slice_retries {
        if obs::metrics::recording() {
            par_obs_handles().slice_retries.inc();
        }
        match catch_unwind(AssertUnwindSafe(|| {
            run_slice(slice_index, steps.clone())
        })) {
            Ok(outcome) => return Some(outcome),
            Err(_panic) => {
                if obs::metrics::recording() {
                    par_obs_handles().worker_panics.inc();
                }
            }
        }
    }
    None
}

/// The last rung of the degradation ladder: one sequential all-clause
/// pass without fault injection. If even that panics, the result is
/// `Exhausted(WorkerFailure)` — the run could not complete, but no
/// verdict is fabricated.
fn sequential_fallback<'f, P: Propagator>(
    formula: &'f CnfFormula,
    proof: &'f ConflictClauseProof,
    harness: &Harness,
    prebuilt: Option<Checker<'f, P>>,
) -> Outcome {
    let checker =
        prebuilt.unwrap_or_else(|| Checker::<P>::with_engine(formula, proof));
    catch_unwind(AssertUnwindSafe(|| {
        checker.run_harnessed(CheckMode::All, None, harness, None)
    }))
    .unwrap_or_else(|_panic| Outcome::Exhausted {
        reason: ExhaustReason::WorkerFailure,
        progress: Progress { steps_total: proof.len(), ..Progress::default() },
        checkpoint: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::verify_all;
    use cnf::Clause;

    fn xor_square() -> CnfFormula {
        CnfFormula::from_dimacs_clauses(&[vec![1, 2], vec![-1, -2], vec![1, -2], vec![-1, 2]])
    }

    fn proof(clauses: &[Vec<i32>]) -> ConflictClauseProof {
        clauses.iter().map(|c| Clause::from_dimacs(c)).collect()
    }

    #[test]
    fn parallel_accepts_valid_proofs_with_same_core() {
        let p = proof(&[vec![2], vec![-2]]);
        for threads in [1, 2, 4] {
            let par = verify_all_parallel(&xor_square(), &p, threads).expect("valid");
            let seq = verify_all(&xor_square(), &p).expect("valid");
            assert_eq!(par.core.indices(), seq.core.indices(), "{threads} threads");
            assert_eq!(par.report.num_checked, seq.report.num_checked);
        }
    }

    #[test]
    fn parallel_rejects_with_largest_failing_step() {
        // two bogus clauses at steps 0 and 2; sequential reverse order
        // reports step 2 first
        let p = proof(&[vec![7], vec![2], vec![8], vec![-2]]);
        let seq = verify_all(&xor_square(), &p).expect_err("bogus");
        let par = verify_all_parallel(&xor_square(), &p, 3).expect_err("bogus");
        match (&seq, &par) {
            (
                VerifyError::NotImplied { step: s1, .. },
                VerifyError::NotImplied { step: s2, .. },
            ) => assert_eq!(s1, s2, "same step reported"),
            other => panic!("wrong errors {other:?}"),
        }
    }

    #[test]
    fn parallel_empty_proof() {
        let trivial = CnfFormula::from_dimacs_clauses(&[vec![1], vec![-1]]);
        let v = verify_all_parallel(&trivial, &ConflictClauseProof::default(), 4)
            .expect("root conflict");
        assert_eq!(v.core.len(), 2);
    }

    #[test]
    fn parallel_detects_non_refutation() {
        let p = proof(&[vec![1, 2]]);
        assert_eq!(
            verify_all_parallel(&xor_square(), &p, 2).expect_err("no refutation"),
            VerifyError::NotARefutation
        );
    }

    #[test]
    fn memory_cap_degrades_to_sequential_when_one_copy_fits() {
        // one arena copy fits, workers+1 copies do not → sequential pass
        let p = proof(&[vec![2], vec![-2]]);
        let formula = xor_square();
        let probe = Checker::new(&formula, &p);
        let one_copy = probe.arena_bytes();
        drop(probe);
        let harness = Harness::with_budget(
            crate::harness::Budget::unlimited().max_arena_bytes(one_copy),
        );
        let outcome =
            verify_all_parallel_harnessed(&formula, &p, 4, &harness);
        let v = outcome.verified().expect("degraded run still verifies");
        let seq = verify_all(&formula, &p).expect("valid");
        assert_eq!(v.core.indices(), seq.core.indices());
    }

    #[test]
    fn memory_cap_exhausts_when_nothing_fits() {
        let p = proof(&[vec![2], vec![-2]]);
        let harness = Harness::with_budget(
            crate::harness::Budget::unlimited().max_arena_bytes(1),
        );
        let outcome =
            verify_all_parallel_harnessed(&xor_square(), &p, 2, &harness);
        match outcome {
            Outcome::Exhausted { reason, checkpoint, .. } => {
                assert_eq!(reason, ExhaustReason::Memory);
                assert!(checkpoint.is_none());
            }
            other => panic!("expected memory exhaustion, got {other:?}"),
        }
    }
}
