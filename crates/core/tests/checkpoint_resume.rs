//! What a checkpointed native run guarantees when it resumes.
//!
//! Both engines spend the same fuel on every check, so a checkpoint
//! does not depend on the engine that wrote it: written on one engine,
//! it resumes on the other to exactly what a same-engine resume gives.
//!
//! A resumed run restarts on a fresh engine whose watch lists are not
//! the ones the interrupted run had reached, so it may find other
//! conflicts and check and mark other clauses than an uninterrupted
//! run. It keeps the verdict, and its core and marked steps still
//! refute: the proof trimmed to the marked steps verifies against the
//! core with every step checked.

use bcp::PropagatorChoice;
use cnf::CnfFormula;
use proofver::{
    resume_verification, resume_verification_with_engine, trim_proof, verify_all, verify_harnessed,
    verify_harnessed_with_engine, Budget, CheckMode, Checkpoint, ConflictClauseProof, Harness,
    Outcome,
};

const MODES: [CheckMode; 3] = [CheckMode::MarkedOnly, CheckMode::All, CheckMode::AllForward];

const ENGINES: [PropagatorChoice; 2] = [PropagatorChoice::Watched, PropagatorChoice::ArenaWatched];

/// The solver's conflict-clause proof of `formula`.
fn solver_proof(formula: &CnfFormula) -> ConflictClauseProof {
    let trace = cdcl::solve(formula, cdcl::SolverConfig::default())
        .into_proof()
        .expect("the formula is unsatisfiable");
    ConflictClauseProof::new(trace.clauses())
}

/// Every field of an outcome but the wall-clock time.
fn fields(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Verified(v) => {
            let r = &v.report;
            format!(
                "verified: original {} proof {} checked {} literals {} core {} \
                 propagations {} visits {} core {:?} marked {:?}",
                r.num_original,
                r.num_conflict_clauses,
                r.num_checked,
                r.proof_literals,
                r.core_size,
                r.propagations,
                r.clause_visits,
                v.core.indices(),
                v.marked_steps
            )
        }
        Outcome::Rejected { step, error } => format!("rejected: {step:?} {error}"),
        Outcome::Exhausted {
            reason,
            progress,
            checkpoint,
        } => {
            format!("exhausted: {reason:?} {progress:?} {checkpoint:?}")
        }
    }
}

fn checkpoint_of(outcome: &Outcome) -> Option<Checkpoint> {
    match outcome {
        Outcome::Exhausted { checkpoint, .. } => checkpoint.as_deref().cloned(),
        _ => None,
    }
}

#[test]
fn a_checkpoint_resumes_on_either_engine_alike() {
    let formula = cnfgen::pigeonhole(4);
    let proof = solver_proof(&formula);
    for mode in MODES {
        let whole = verify_harnessed(&formula, &proof, mode, &Harness::default());
        let total = whole
            .verified()
            .expect("a solver proof verifies")
            .report
            .propagations;
        let mut resumed = 0;
        for k in 0..24 {
            let cap = k * total / 24;
            let harness = Harness::with_budget(Budget::unlimited().max_propagations(cap));
            let [watched, arena] = ENGINES.map(|engine| {
                verify_harnessed_with_engine(&formula, &proof, mode, &harness, engine)
            });
            assert_eq!(fields(&watched), fields(&arena), "{mode:?} at cap {cap}");
            let written = [(ENGINES[0], &watched), (ENGINES[1], &arena)];
            for (writer, checkpoint) in written.map(|(e, o)| (e, checkpoint_of(o))) {
                let Some(checkpoint) = checkpoint else {
                    continue;
                };
                let unlimited = Harness::default();
                let [on_watched, on_arena] = ENGINES.map(|engine| {
                    resume_verification_with_engine(
                        &formula,
                        &proof,
                        &checkpoint,
                        &unlimited,
                        engine,
                    )
                    .expect("the checkpoint fits its inputs")
                });
                assert!(
                    on_arena.verified().is_some(),
                    "{mode:?} at cap {cap}: {}",
                    fields(&on_arena)
                );
                assert_eq!(
                    fields(&on_watched),
                    fields(&on_arena),
                    "{mode:?}: a checkpoint written on {writer:?} at cap {cap}"
                );
                resumed += 1;
            }
        }
        assert!(resumed >= 20, "{mode:?}: the sweep resumed {resumed} times");
    }
}

#[test]
fn a_resumed_run_keeps_the_verdict_and_a_refuting_core() {
    let formula = cnfgen::tseitin_grid(4, 4);
    let proof = solver_proof(&formula);
    for mode in MODES {
        let whole = verify_harnessed(&formula, &proof, mode, &Harness::default());
        assert!(
            whole.verified().is_some(),
            "{mode:?}: a solver proof verifies"
        );
        let capped = Harness::with_budget(Budget::unlimited().max_propagations(1000));
        let stopped = verify_harnessed(&formula, &proof, mode, &capped);
        let checkpoint = checkpoint_of(&stopped)
            .unwrap_or_else(|| panic!("{mode:?}: the cap interrupts: {}", fields(&stopped)));
        let resumed = resume_verification(&formula, &proof, &checkpoint, &Harness::default())
            .expect("the checkpoint fits its inputs");
        let v = resumed
            .verified()
            .unwrap_or_else(|| panic!("{mode:?}: the resumed run verifies: {}", fields(&resumed)));
        let core = v.core.to_formula(&formula);
        let trimmed = trim_proof(&proof, &v.marked_steps);
        verify_all(&core, &trimmed).unwrap_or_else(|e| {
            panic!("{mode:?}: the trimmed proof does not refute the core: {e}")
        });
    }
}
