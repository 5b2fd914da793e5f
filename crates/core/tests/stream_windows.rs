//! Integration tests for the streaming (windowed, checkpointed)
//! backward checker: verdict parity with the in-memory checker,
//! kill-and-resume at window boundaries, fault injection through the
//! reader and checkpoint writer, and the memory-pressure degradation
//! ladder.

use std::path::PathBuf;

use proofver::{
    chain_workload, encode_drat_to_vec, verify, verify_drat_backward_harnessed,
    verify_drat_stream, verify_drat_stream_bytes, Budget, DratOutcome,
    FaultPlan, Harness, PropagatorChoice, StreamCheckpoint, StreamConfig,
    StreamError, StreamOutcome, StreamVerification, VerifyError,
};

fn tiny_config() -> StreamConfig {
    StreamConfig {
        memory_budget: 96 * 1024,
        window_bytes: 0,
        min_window_bytes: 512,
        index_granule_bytes: 1024,
        chunk_bytes: 4096,
        checkpoint: None,
    }
}

fn temp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("proofver-stream-{name}-{}", std::process::id()));
    path
}

fn expect_verified(outcome: StreamOutcome) -> Box<StreamVerification> {
    match outcome {
        StreamOutcome::Verified(v) => v,
        other => panic!("expected Verified, got {other:?}"),
    }
}

#[test]
fn streaming_core_matches_in_memory_core() {
    let (formula, proof) = chain_workload(500);
    let harness = Harness::default();
    let DratOutcome::Verified(reference) = verify_drat_backward_harnessed(
        &formula,
        &proof,
        &harness,
        PropagatorChoice::Watched,
    ) else {
        panic!("in-memory checker rejected the workload");
    };
    let bytes = encode_drat_to_vec(&proof);
    let v = expect_verified(verify_drat_stream_bytes(
        &formula,
        &bytes,
        &harness,
        &tiny_config(),
        PropagatorChoice::Watched,
        None,
        None,
    ));
    assert_eq!(v.core.indices(), reference.core.indices());
    assert_eq!(v.total_adds as usize, proof.num_adds());
}

/// Every link deletes the previous unit and a later one resurrects it
/// in the backward walk, so the in-memory checker's live-unit set is
/// rebuilt on every link; it must enqueue the same units in the same
/// order as the windowed checker's scan.
#[test]
fn in_memory_and_bounded_stream_agree_on_the_chain() {
    let (formula, proof) = chain_workload(2_000);
    let harness = Harness::default();
    let DratOutcome::Verified(reference) = verify_drat_backward_harnessed(
        &formula,
        &proof,
        &harness,
        PropagatorChoice::Watched,
    ) else {
        panic!("in-memory checker rejected the workload");
    };
    let v = expect_verified(verify_drat_stream_bytes(
        &formula,
        &encode_drat_to_vec(&proof),
        &harness,
        &tiny_config(),
        PropagatorChoice::Watched,
        None,
        None,
    ));
    assert!(v.windows > 1, "the budget must split the proof into windows");
    assert_eq!(v.num_checked, reference.num_checked);
    assert_eq!(v.core.indices(), reference.core.indices());
    assert_eq!(v.stats.num_rat, reference.stats.num_rat);
}

/// The chain's bridges `(w_i ∨ ¬w_{i-1})` are blocked RAT steps, not
/// RUP ones, so the native RUP-only checker rejects the proof's native
/// form (its additions, deletions dropped) while both DRAT checkers
/// accept it with one RAT check per bridge after the first.
#[test]
fn native_checker_rejects_the_chain_that_drat_checkers_accept() {
    let links = 300;
    let (formula, proof) = chain_workload(links);
    match verify(&formula, &proof.to_conflict_proof()) {
        Err(VerifyError::NotImplied { clause, .. }) => {
            assert_eq!(clause.len(), 2, "a bridge fails, not {clause:?}");
        }
        other => panic!("expected NotImplied, got {other:?}"),
    }
    let harness = Harness::default();
    for engine in [PropagatorChoice::Watched, PropagatorChoice::ArenaWatched] {
        let DratOutcome::Verified(v) =
            verify_drat_backward_harnessed(&formula, &proof, &harness, engine)
        else {
            panic!("{engine}: the in-memory DRAT checker rejected the chain");
        };
        assert_eq!(v.stats.num_rat, links - 1, "{engine}");
        let s = expect_verified(verify_drat_stream_bytes(
            &formula,
            &encode_drat_to_vec(&proof),
            &harness,
            &tiny_config(),
            engine,
            None,
            None,
        ));
        assert_eq!(s.stats.num_rat, links - 1, "{engine}");
    }
}

#[test]
fn both_engines_agree() {
    let (formula, proof) = chain_workload(300);
    let bytes = encode_drat_to_vec(&proof);
    let harness = Harness::default();
    for engine in [PropagatorChoice::Watched, PropagatorChoice::ArenaWatched] {
        let v = expect_verified(verify_drat_stream_bytes(
            &formula,
            &bytes,
            &harness,
            &tiny_config(),
            engine,
            None,
            None,
        ));
        assert_eq!(v.core.len(), 4, "engine {engine} disagreed");
    }
}

#[test]
fn file_and_bytes_paths_agree() {
    let (formula, proof) = chain_workload(400);
    let bytes = encode_drat_to_vec(&proof);
    let path = temp_path("file-parity");
    std::fs::write(&path, &bytes).unwrap();
    let harness = Harness::default();
    let from_file = expect_verified(verify_drat_stream(
        &formula,
        &path,
        &harness,
        &tiny_config(),
        PropagatorChoice::Watched,
        None,
        None,
    ));
    let from_bytes = expect_verified(verify_drat_stream_bytes(
        &formula,
        &bytes,
        &harness,
        &tiny_config(),
        PropagatorChoice::Watched,
        None,
        None,
    ));
    assert_eq!(from_file.core.indices(), from_bytes.core.indices());
    assert_eq!(from_file.num_checked, from_bytes.num_checked);
    assert_eq!(from_file.windows, from_bytes.windows);
    std::fs::remove_file(&path).ok();
}

#[test]
fn residency_stays_within_budget_for_a_proof_ten_times_larger() {
    let (formula, proof) = chain_workload(60_000);
    let bytes = encode_drat_to_vec(&proof);
    let budget = 80 * 1024u64;
    assert!(
        bytes.len() as u64 >= 10 * budget,
        "workload too small: {} bytes",
        bytes.len()
    );
    let config = StreamConfig {
        memory_budget: budget,
        window_bytes: 0,
        min_window_bytes: 512,
        index_granule_bytes: 2048,
        chunk_bytes: 8192,
        checkpoint: None,
    };
    let harness = Harness::default();
    let v = expect_verified(verify_drat_stream_bytes(
        &formula,
        &bytes,
        &harness,
        &config,
        PropagatorChoice::Watched,
        None,
        None,
    ));
    assert!(
        v.peak_residency <= budget,
        "peak residency {} exceeds budget {budget}",
        v.peak_residency
    );
    assert!(v.windows > 10, "expected many windows, got {}", v.windows);
    assert!(
        v.arena_rebuilds > 0,
        "a budget this tight must trigger store rebuilds"
    );
}

#[test]
fn resume_from_every_checkpoint_reaches_the_same_verdict() {
    let (formula, proof) = chain_workload(2_000);
    let bytes = encode_drat_to_vec(&proof);
    let harness = Harness::default();
    let reference = expect_verified(verify_drat_stream_bytes(
        &formula,
        &bytes,
        &harness,
        &tiny_config(),
        PropagatorChoice::Watched,
        None,
        None,
    ));
    assert!(reference.windows >= 3);

    // Interrupt after an increasing number of propagations, then resume
    // from whatever checkpoint the interrupted run left behind.
    let cp_path = temp_path("resume-verdict");
    for cap in [1u64, 50, 500, 5_000] {
        std::fs::remove_file(&cp_path).ok();
        let mut config = tiny_config();
        config.checkpoint = Some(cp_path.clone());
        let capped =
            Harness::with_budget(Budget::unlimited().max_propagations(cap));
        let first = verify_drat_stream_bytes(
            &formula,
            &bytes,
            &capped,
            &config,
            PropagatorChoice::Watched,
            None,
            None,
        );
        let StreamOutcome::Exhausted { checkpointed, .. } = first else {
            // a generous cap may finish outright; that run must agree
            let v = expect_verified(first);
            assert_eq!(v.core.indices(), reference.core.indices());
            continue;
        };
        assert!(checkpointed, "cap {cap}: checkpoint should exist");
        let cp = StreamCheckpoint::load(&cp_path).unwrap();
        let v = expect_verified(verify_drat_stream_bytes(
            &formula,
            &bytes,
            &Harness::default(),
            &config,
            PropagatorChoice::Watched,
            Some(&cp),
            None,
        ));
        assert_eq!(
            v.core.indices(),
            reference.core.indices(),
            "cap {cap}: resumed core diverged"
        );
        assert_eq!(v.total_adds, reference.total_adds);
    }
    std::fs::remove_file(&cp_path).ok();
}

#[test]
fn resume_across_repeated_interruptions() {
    let (formula, proof) = chain_workload(3_000);
    let bytes = encode_drat_to_vec(&proof);
    let cp_path = temp_path("resume-repeated");
    std::fs::remove_file(&cp_path).ok();
    let mut config = tiny_config();
    config.checkpoint = Some(cp_path.clone());

    let mut resume: Option<StreamCheckpoint> = None;
    let mut rounds = 0usize;
    let verdict = loop {
        rounds += 1;
        assert!(rounds < 1_000, "no progress across interruptions");
        // Resumed runs re-seed the fuel with the checkpoint's spent
        // counters (as of the last window boundary), so the cap must
        // grow past them — and keep growing, since a single window may
        // cost more than any fixed increment.
        let spent = resume.as_ref().map_or(0, |c| c.spent_propagations);
        let capped = Harness::with_budget(
            Budget::unlimited().max_propagations(spent + 300 * rounds as u64),
        );
        let outcome = verify_drat_stream_bytes(
            &formula,
            &bytes,
            &capped,
            &config,
            PropagatorChoice::Watched,
            resume.as_ref(),
            None,
        );
        match outcome {
            StreamOutcome::Exhausted { checkpointed, .. } => {
                assert!(checkpointed);
                resume = Some(StreamCheckpoint::load(&cp_path).unwrap());
            }
            other => break other,
        }
    };
    let v = expect_verified(verdict);
    assert_eq!(v.core.len(), 4);
    assert!(rounds > 1, "the cap should interrupt at least once");
    std::fs::remove_file(&cp_path).ok();
}

#[test]
fn injected_read_fault_is_failed_not_rejected() {
    let (formula, proof) = chain_workload(1_000);
    let bytes = encode_drat_to_vec(&proof);
    let harness = Harness {
        faults: FaultPlan::none().fail_read_at(bytes.len() as u64 / 2, 1),
        ..Harness::default()
    };
    let outcome = verify_drat_stream_bytes(
        &formula,
        &bytes,
        &harness,
        &tiny_config(),
        PropagatorChoice::Watched,
        None,
        None,
    );
    let StreamOutcome::Failed(StreamError::Io { message, .. }) = outcome else {
        panic!("expected an I/O failure, got {outcome:?}");
    };
    assert!(message.contains("injected fault"), "{message}");
}

#[test]
fn short_reads_are_transparent() {
    let (formula, proof) = chain_workload(800);
    let bytes = encode_drat_to_vec(&proof);
    let plain = expect_verified(verify_drat_stream_bytes(
        &formula,
        &bytes,
        &Harness::default(),
        &tiny_config(),
        PropagatorChoice::Watched,
        None,
        None,
    ));
    let harness = Harness {
        faults: FaultPlan::none().short_reads(7),
        ..Harness::default()
    };
    let short = expect_verified(verify_drat_stream_bytes(
        &formula,
        &bytes,
        &harness,
        &tiny_config(),
        PropagatorChoice::Watched,
        None,
        None,
    ));
    assert_eq!(plain.core.indices(), short.core.indices());
    assert_eq!(plain.num_checked, short.num_checked);
    assert_eq!(plain.windows, short.windows);
}

#[test]
fn torn_checkpoint_write_preserves_the_previous_checkpoint() {
    let (formula, proof) = chain_workload(2_000);
    let bytes = encode_drat_to_vec(&proof);
    let cp_path = temp_path("torn-write");
    std::fs::remove_file(&cp_path).ok();
    let mut config = tiny_config();
    config.checkpoint = Some(cp_path.clone());

    // First run: interrupt cleanly so a good checkpoint lands on disk.
    let capped =
        Harness::with_budget(Budget::unlimited().max_propagations(600));
    let first = verify_drat_stream_bytes(
        &formula,
        &bytes,
        &capped,
        &config,
        PropagatorChoice::Watched,
        None,
        None,
    );
    assert!(matches!(
        first,
        StreamOutcome::Exhausted { checkpointed: true, .. }
    ));
    let good = StreamCheckpoint::load(&cp_path).unwrap();

    // Resume with a torn-write fault armed: the next checkpoint write
    // tears mid-payload and the run reports the failure...
    let harness = Harness {
        faults: FaultPlan::none().torn_write_after(40, 1),
        ..Harness::default()
    };
    let outcome = verify_drat_stream_bytes(
        &formula,
        &bytes,
        &harness,
        &config,
        PropagatorChoice::Watched,
        Some(&good),
        None,
    );
    assert!(
        matches!(outcome, StreamOutcome::Failed(StreamError::Checkpoint(_))),
        "expected a checkpoint failure, got {outcome:?}"
    );

    // ...but the previous checkpoint file survives intact (atomic
    // write-rename: the torn payload only ever reached the temp file),
    // and resuming from it still reaches the verdict.
    let survived = StreamCheckpoint::load(&cp_path).unwrap();
    assert_eq!(survived, good);
    let v = expect_verified(verify_drat_stream_bytes(
        &formula,
        &bytes,
        &Harness::default(),
        &config,
        PropagatorChoice::Watched,
        Some(&survived),
        None,
    ));
    assert_eq!(v.core.len(), 4);
    std::fs::remove_file(&cp_path).ok();
}

#[test]
fn checkpoint_for_different_proof_is_a_mismatch() {
    let (formula, proof) = chain_workload(1_000);
    let bytes = encode_drat_to_vec(&proof);
    let cp_path = temp_path("mismatch");
    std::fs::remove_file(&cp_path).ok();
    let mut config = tiny_config();
    config.checkpoint = Some(cp_path.clone());
    let capped =
        Harness::with_budget(Budget::unlimited().max_propagations(200));
    let first = verify_drat_stream_bytes(
        &formula,
        &bytes,
        &capped,
        &config,
        PropagatorChoice::Watched,
        None,
        None,
    );
    assert!(matches!(first, StreamOutcome::Exhausted { .. }));
    let cp = StreamCheckpoint::load(&cp_path).unwrap();

    // same formula, different proof file
    let (_, other_proof) = chain_workload(1_001);
    let other_bytes = encode_drat_to_vec(&other_proof);
    let outcome = verify_drat_stream_bytes(
        &formula,
        &other_bytes,
        &Harness::default(),
        &config,
        PropagatorChoice::Watched,
        Some(&cp),
        None,
    );
    assert!(
        matches!(outcome, StreamOutcome::Failed(StreamError::Checkpoint(_))),
        "expected a checkpoint mismatch, got {outcome:?}"
    );
    std::fs::remove_file(&cp_path).ok();
}

#[test]
fn impossible_budget_exhausts_instead_of_rejecting() {
    let (formula, proof) = chain_workload(5_000);
    let bytes = encode_drat_to_vec(&proof);
    let config = StreamConfig {
        memory_budget: 1024, // far below even one granule's cost
        window_bytes: 0,
        min_window_bytes: 512,
        index_granule_bytes: 1024,
        chunk_bytes: 4096,
        checkpoint: None,
    };
    let outcome = verify_drat_stream_bytes(
        &formula,
        &bytes,
        &Harness::default(),
        &config,
        PropagatorChoice::Watched,
        None,
        None,
    );
    assert!(
        matches!(outcome, StreamOutcome::Exhausted { .. }),
        "expected exhaustion, got {outcome:?}"
    );
}

#[test]
fn degradation_ladder_shrinks_before_exhausting() {
    let (formula, proof) = chain_workload(20_000);
    let bytes = encode_drat_to_vec(&proof);
    // start with an oversized window so the ladder has to shrink it
    let config = StreamConfig {
        memory_budget: 96 * 1024,
        window_bytes: u64::from(u32::MAX),
        min_window_bytes: 512,
        index_granule_bytes: 1024,
        chunk_bytes: 8192,
        checkpoint: None,
    };
    let v = expect_verified(verify_drat_stream_bytes(
        &formula,
        &bytes,
        &Harness::default(),
        &config,
        PropagatorChoice::Watched,
        None,
        None,
    ));
    assert!(v.window_shrinks > 0, "ladder never shrank the window");
    assert!(v.peak_residency <= 96 * 1024);
}

#[test]
fn stream_events_cover_the_window_lifecycle() {
    let (formula, proof) = chain_workload(1_500);
    let bytes = encode_drat_to_vec(&proof);
    let log_path = temp_path("events.jsonl");
    {
        let events = obs::EventLog::create(&log_path).unwrap();
        let v = expect_verified(verify_drat_stream_bytes(
            &formula,
            &bytes,
            &Harness::default(),
            &tiny_config(),
            PropagatorChoice::Watched,
            None,
            Some(&events),
        ));
        assert!(v.windows > 1);
    }
    let text = std::fs::read_to_string(&log_path).unwrap();
    for needle in [
        "stream.index.done",
        "stream.terminal",
        "stream.window.start",
        "stream.window.done",
        "stream.done",
    ] {
        assert!(text.contains(needle), "missing event {needle}:\n{text}");
    }
    std::fs::remove_file(&log_path).ok();
}
