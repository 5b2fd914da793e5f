//! The `satverify` command-line tool: solve DIMACS files with verified
//! answers, check proofs, extract cores, trim proofs, and generate
//! benchmark instances.
//!
//! Exit codes follow the SAT-competition convention where applicable:
//! `10` = SAT, `20` = UNSAT (verified), `0` = success for non-solving
//! commands, `1` = failure (bad proof, unverifiable answer), `2` = usage
//! error.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read};
use std::path::Path;
use std::process::ExitCode;

use std::time::Duration;

use cdcl::{LearningScheme, SolverConfig};
use cnf::{parse_dimacs, write_dimacs, CnfFormula};
use proofver::{
    decode_proof, encode_proof, parse_proof, resume_verification_with_engine,
    verify_all_parallel_harnessed_with_engine, verify_harnessed_with_engine,
    write_proof, Budget, CheckMode, Checkpoint, CheckpointError,
    ConflictClauseProof, Harness, Outcome, ProofStats, PropagatorChoice,
    StreamCheckpoint, StreamConfig, StreamError, StreamOutcome, MAGIC,
};
use satverifyd::{
    BudgetSpec, Client, Endpoint, ErrorCode as WireError, IoModel,
    Request as WireRequest, Response as WireResponse, RetryPolicy, Router,
    RouterConfig, Server, ServerConfig, VerifyRequest, DEFAULT_CACHE_BYTES,
};
use satverify::{
    minimal_core_of_verified, minimize_core, solve_and_verify,
    solve_and_verify_preprocessed, HarnessSummary, PipelineOutcome, RunReport,
    SimplifyConfig,
};

const USAGE: &str = "\
satverify — SAT solving with independently verified answers
(Goldberg & Novikov, DATE 2003)

USAGE:
    satverify solve <cnf> [--proof <out>] [--binary] [--scheme <s>]
                          [--max-conflicts <n>] [--preprocess]
                          [--json <path>] [--trace] [--metrics]
        solve a DIMACS file; on UNSAT the proof is verified before the
        answer is reported, and optionally written to <out>.
        --preprocess runs subsumption + variable elimination first (the
        stitched proof still verifies against the original formula).
        schemes: 1uip (default), decision, mixed:<period>

    satverify check <cnf> <proof> [--all] [--parallel <n>]
                          [--proof-format <native|drat>]
                          [--emit-lrat <path>] [--emit-trimmed <path>]
                          [--emit-binary]
                          [--max-propagations <n>] [--max-clause-visits <n>]
                          [--max-memory-mb <n>] [--timeout-ms <n>]
                          [--checkpoint <path>] [--resume]
                          [--stream] [--memory-budget <mb>]
                          [--window-kb <n>] [--granule-kb <n>]
                          [--event-log <path>]
                          [--json <path>] [--trace] [--metrics]
        verify a proof (text or binary, auto-detected);
        --all checks every clause (Proof_verification1); --parallel
        splits the --all check across <n> panic-isolated workers.
        --proof-format drat ingests a standard DRAT proof (additions
        and deletions, drat-trim text or binary encoding) and checks
        it backward with core-first marking; --emit-lrat writes the
        LRAT certificate recorded during that pass, --emit-trimmed
        the trimmed DRAT proof (--emit-binary selects the binary
        encodings). Formats contract: docs/FORMATS.md.
        --stream (binary DRAT only) checks the proof in bounded
        memory by windows, never holding more than --memory-budget
        <mb> (default 64) of proof state; with --checkpoint a durable
        checkpoint is written at every window boundary and --resume
        continues a killed run mid-proof. --event-log appends one
        JSON line per window-lifecycle event.
        Budget flags bound the run: when a limit is hit the result is
        s UNKNOWN (exit 4) — never a verdict. With --checkpoint, an
        interrupted sequential run writes its progress there, and
        --resume continues from it (finishing with a report identical,
        modulo timing, to an uninterrupted run).
        exit codes: 0 verified, 1 proof rejected, 2 usage error,
        3 malformed input, 4 budget exhausted

    satverify lrat <cnf> <lrat>
        replay an LRAT certificate (text or binary, auto-detected)
        against the formula with the in-repo hint checker;
        exit codes: 0 valid, 1 invalid, 2 usage, 3 malformed

    Observability (solve and check):
        --json <path>  write a machine-readable RunReport (solver stats,
                       proof stats, verification report, span timings,
                       metrics registry) as JSON to <path>
        --trace        print per-phase span timings to stderr
        --metrics      print the metrics registry to stderr

    satverify serve [--listen <ep>] [--workers <n>] [--queue-capacity <n>]
                    [--cache-mb <n>] [--no-cache] [--io <reactor|threads>]
                    [budget flags] [--drain-on-stdin-close]
                    [--event-log <path>]
        run the verification daemon: accept jobs over tcp:HOST:PORT or
        unix:PATH (default tcp:127.0.0.1:0; the bound endpoint is
        printed), check them on a bounded worker pool, and drain
        gracefully on a `shutdown` request. Budget flags set the
        per-job default; requests may tighten or override it.
        Identical inline submissions are served from a content-addressed
        verdict cache (--cache-mb sets the byte budget, default 64;
        --no-cache verifies every submission); --io selects the
        connection I/O model (default reactor on unix: one poller thread
        for any number of connections).
        --event-log appends one JSON line per job-lifecycle event
        (received, admitted, rejected, started, terminal — schema in
        docs/OBSERVABILITY.md).

    satverify route [--listen <ep>] --backend <ep> [--backend <ep>]...
                    [--health-interval-ms <n>] [--event-log <path>]
        run the sharding front tier: speak the same protocol as `serve`,
        hash each job's formula to a home backend, skip unhealthy
        backends, and re-route jobs bounced by a draining backend so no
        submission loses its disposition. `stats` against the router
        reports per-backend forwarding counters; `shutdown` drains it.

    satverify client <endpoint> ping|stats|metrics|shutdown
    satverify client <endpoint> check <cnf> <proof> [--all] [--by-path]
                     [--proof-format <native|drat>] [--stream]
                     [--no-retry] [budget flags]
    satverify client <endpoint> batch <jobs.jsonl> [--no-retry]
        talk to a running daemon. `stats` prints counters and µs
        latency percentiles (queue wait, verify, end-to-end); `metrics`
        dumps the daemon's registry in Prometheus text exposition.
        `check` submits one job (file contents are sent inline unless
        --by-path passes server-local paths) and prints the same report
        as the local `check`; --stream (with --proof-format drat and
        --by-path) runs the daemon's windowed bounded-memory checker,
        with --max-memory-mb as the residency cap. `batch` submits one
        verify job per JSONL line in a single pipelined round trip and
        prints one result line per job in submission order (jobs
        without an `id` get `job-<line>`); its exit code is the worst
        job's. Transient connect failures are retried with capped
        exponential backoff and jitter (--no-retry tries once; retries
        are per-connection, never per-job); exit codes are the `check`
        contract plus 5 = daemon unavailable (unreachable, overloaded,
        or draining).

    satverify drat <cnf> <proof>
        verify a proof that may contain RAT steps (DRAT semantics);
        exit codes: 0 verified, 1 proof rejected, 2 usage error,
        3 malformed input

    satverify core <cnf> [--minimize|--mus] [--out <file>]
        solve, verify, and print/write the unsatisfiable core;
        --minimize iterates re-solving to a fixpoint, --mus extracts a
        minimal unsatisfiable subset via incremental assumptions

    satverify trim <cnf> <proof-in> <proof-out> [--binary]
        verify a proof and write back only the contributing clauses;
        exit codes: 0 trimmed, 1 proof rejected, 2 usage error,
        3 malformed input

    satverify aig <aag-file> [--output <i>]
        parse an AIGER ASCII circuit, assert output <i> (default 0) true,
        and solve the resulting CNF with a verified answer — UNSAT means
        the output is constant false (e.g. a proven miter)

    satverify gen <family> <args..> [--out <file>]
        families: php <holes> | tseitin <n> <m> | chess <n> |
                  pebbling <h> | rand3sat <vars> <clauses> <seed> |
                  eqv-adder <w> | eqv-shifter <w> <s> | pipe-cpu <w> |
                  bmc-counter <bits> <k> | bmc-lfsr <bits> <k> |
                  stream-chain <links> (writes <out>.cnf + <out>.drat,
                  a small formula with a proof ~14 bytes per link for
                  exercising `check --stream`)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(command) = args.first() else {
        eprint!("{USAGE}");
        return Ok(ExitCode::from(2));
    };
    let rest = &args[1..];
    match command.as_str() {
        "solve" => cmd_solve(rest),
        "check" => cmd_check(rest),
        "serve" => cmd_serve(rest),
        "route" => cmd_route(rest),
        "client" => cmd_client(rest),
        "drat" => cmd_drat(rest),
        "lrat" => cmd_lrat(rest),
        "core" => cmd_core(rest),
        "trim" => cmd_trim(rest),
        "gen" => cmd_gen(rest),
        "aig" => cmd_aig(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}; try `satverify help`")),
    }
}

fn load_formula(path: &str) -> Result<CnfFormula, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    parse_dimacs(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
}

fn load_proof(path: &str) -> Result<ConflictClauseProof, String> {
    let mut file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut head = [0u8; 4];
    let n = file.read(&mut head).map_err(|e| format!("{path}: {e}"))?;
    let file = File::open(path).map_err(|e| format!("cannot reopen {path}: {e}"))?;
    if n == 4 && head == MAGIC {
        decode_proof(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
    } else {
        parse_proof(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
    }
}

/// Loads a DIMACS formula and a native proof. An unreadable or
/// malformed file is reported on stderr and gets the malformed-input
/// exit code.
fn load_inputs(
    cnf_path: &str,
    proof_path: &str,
) -> Result<(CnfFormula, ConflictClauseProof), ExitCode> {
    let inputs = load_formula(cnf_path).and_then(|f| Ok((f, load_proof(proof_path)?)));
    inputs.map_err(|msg| {
        eprintln!("error: {msg}");
        ExitCode::from(EXIT_MALFORMED)
    })
}

fn parse_scheme(text: &str) -> Result<LearningScheme, String> {
    match text {
        "1uip" => Ok(LearningScheme::FirstUip),
        "decision" => Ok(LearningScheme::Decision),
        _ => text
            .strip_prefix("mixed:")
            .and_then(|p| p.parse::<u32>().ok())
            .map(|period| LearningScheme::Mixed { period })
            .ok_or_else(|| format!("bad scheme {text:?} (1uip|decision|mixed:<n>)")),
    }
}

/// Pulls `--flag value` out of an argument list; returns remaining
/// positional arguments.
fn take_option(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        return None;
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Some(value)
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

/// The observability flags shared by `solve` and `check`:
/// `--json <path>`, `--trace`, `--metrics`.
struct ObsOptions {
    json: Option<String>,
    trace: bool,
    metrics: bool,
}

impl ObsOptions {
    /// Extracts the flags and, if any were given, switches the global
    /// telemetry on (collecting subscriber + metrics recording) before
    /// the instrumented work starts.
    fn take(args: &mut Vec<String>) -> ObsOptions {
        let opts = ObsOptions {
            json: take_option(args, "--json"),
            trace: take_flag(args, "--trace"),
            metrics: take_flag(args, "--metrics"),
        };
        if opts.enabled() {
            obs::CollectingSubscriber::install();
            obs::metrics::set_recording(true);
        }
        opts
    }

    fn enabled(&self) -> bool {
        self.json.is_some() || self.trace || self.metrics
    }

    /// Gathers the collected telemetry into `report` and emits it as
    /// requested: span/metric tables on stderr, JSON to `--json <path>`.
    fn emit(&self, mut report: RunReport) -> Result<(), String> {
        if !self.enabled() {
            return Ok(());
        }
        report.collect_observability();
        if self.trace {
            eprintln!("c spans (count, total, mean, min, max):");
            for (name, s) in &report.spans {
                eprintln!(
                    "c   {name:<24} {:>9} {:>11.6}s {:>11.9}s {:>11.9}s {:>11.9}s",
                    s.count,
                    s.total.as_secs_f64(),
                    s.mean().as_secs_f64(),
                    s.min.as_secs_f64(),
                    s.max.as_secs_f64(),
                );
            }
        }
        if self.metrics {
            let snapshot = report.metrics.as_ref().expect("collected above");
            eprintln!("c counters:");
            for (name, value) in &snapshot.counters {
                eprintln!("c   {name:<28} {value}");
            }
            eprintln!("c gauges:");
            for (name, value) in &snapshot.gauges {
                eprintln!("c   {name:<28} {value}");
            }
            eprintln!("c histograms (count, mean, min, max):");
            for (name, h) in &snapshot.histograms {
                eprintln!(
                    "c   {name:<28} {:>9} {:>12.1} {:>9} {:>9}",
                    h.count,
                    h.mean(),
                    h.min,
                    h.max
                );
            }
        }
        if let Some(path) = &self.json {
            report
                .write_to_file(Path::new(path))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("c run report written to {path}");
        }
        Ok(())
    }
}

fn cmd_solve(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let obs_opts = ObsOptions::take(&mut args);
    let proof_out = take_option(&mut args, "--proof");
    let binary = take_flag(&mut args, "--binary");
    let preprocess = take_flag(&mut args, "--preprocess");
    let scheme = match take_option(&mut args, "--scheme") {
        Some(s) => parse_scheme(&s)?,
        None => LearningScheme::FirstUip,
    };
    let max_conflicts = take_option(&mut args, "--max-conflicts")
        .map(|v| v.parse::<u64>().map_err(|_| format!("bad --max-conflicts {v:?}")))
        .transpose()?;
    let [path] = args.as_slice() else {
        return Err("usage: satverify solve <cnf> [options]".into());
    };
    let formula = load_formula(path)?;
    let mut report = RunReport::new("solve");
    report.instance_path = Some(path.clone());
    report.num_vars = Some(formula.num_vars());
    report.num_clauses = Some(formula.num_clauses());
    let config = SolverConfig::new()
        .learning_scheme(scheme)
        .max_conflicts(max_conflicts);
    let outcome = if preprocess {
        solve_and_verify_preprocessed(&formula, SimplifyConfig::default(), config)
    } else {
        solve_and_verify(&formula, config)
    };
    match outcome.map_err(|e| e.to_string())? {
        PipelineOutcome::Sat(model) => {
            println!("s SATISFIABLE");
            print!("v");
            for lit in model.to_lits() {
                print!(" {}", lit.to_dimacs());
            }
            println!(" 0");
            report.result = Some("SAT".to_string());
            obs_opts.emit(report)?;
            Ok(ExitCode::from(10))
        }
        PipelineOutcome::Unsat(run) => {
            println!("s UNSATISFIABLE");
            println!(
                "c proof verified: {} ({} clauses, {} literals)",
                run.verification.report,
                run.proof.len(),
                run.proof.num_literals()
            );
            if let Some(out) = proof_out {
                write_proof_file(&run.proof, &out, binary)?;
                println!("c proof written to {out}");
            }
            report.result = Some("UNSAT".to_string());
            report.solver = Some(run.stats);
            report.proof = Some(ProofStats::of(&run.proof));
            report.verification = Some(run.verification.report.clone());
            report.solve_time = Some(run.solve_time);
            report.verify_time = Some(run.verify_time);
            obs_opts.emit(report)?;
            Ok(ExitCode::from(20))
        }
    }
}

fn write_proof_file(
    proof: &ConflictClauseProof,
    path: &str,
    binary: bool,
) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut writer = BufWriter::new(file);
    if binary {
        encode_proof(&mut writer, proof).map_err(|e| format!("{path}: {e}"))
    } else {
        write_proof(&mut writer, proof).map_err(|e| format!("{path}: {e}"))
    }
}

/// `satverify check` exit codes — the failure-semantics contract. An
/// exhausted budget (4) is deliberately distinct from a rejected proof
/// (1): a run that stopped early carries no verdict.
const EXIT_VERIFIED: u8 = 0;
const EXIT_REJECTED: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_MALFORMED: u8 = 3;
const EXIT_EXHAUSTED: u8 = 4;

/// Parses one optional `--flag <u64>` argument; a present-but-garbage
/// value is a usage error.
fn take_u64_option(
    args: &mut Vec<String>,
    flag: &str,
) -> Result<Option<u64>, String> {
    take_option(args, flag)
        .map(|v| v.parse::<u64>().map_err(|_| format!("bad {flag} {v:?}")))
        .transpose()
}

/// Assembles the verification [`Budget`] from the `check` budget flags.
fn take_budget(args: &mut Vec<String>) -> Result<Budget, String> {
    let mut budget = Budget::unlimited();
    if let Some(n) = take_u64_option(args, "--max-propagations")? {
        budget = budget.max_propagations(n);
    }
    if let Some(n) = take_u64_option(args, "--max-clause-visits")? {
        budget = budget.max_clause_visits(n);
    }
    if let Some(mb) = take_u64_option(args, "--max-memory-mb")? {
        budget = budget.max_arena_bytes(mb.saturating_mul(1024 * 1024));
    }
    if let Some(ms) = take_u64_option(args, "--timeout-ms")? {
        budget = budget.timeout(Duration::from_millis(ms));
    }
    Ok(budget)
}

/// `satverify check --help`: the full contract, exit codes included.
const CHECK_HELP: &str = "\
satverify check — verify a conflict-clause proof of unsatisfiability

USAGE:
    satverify check <cnf> <proof> [--all] [--parallel <n>]
                    [--engine <watched|arena>]
                    [--proof-format <native|drat>]
                    [--emit-lrat <path>] [--emit-trimmed <path>]
                    [--emit-binary]
                    [--max-propagations <n>] [--max-clause-visits <n>]
                    [--max-memory-mb <n>] [--timeout-ms <n>]
                    [--checkpoint <path>] [--resume]
                    [--stream] [--memory-budget <mb>]
                    [--window-kb <n>] [--granule-kb <n>]
                    [--event-log <path>]
                    [--json <path>] [--trace] [--metrics]

The proof file may be text or binary (auto-detected). --all checks
every proof clause (Proof_verification1); the default checks only the
clauses marked as contributing (Proof_verification2). --parallel <n>
splits the --all check across n panic-isolated workers. --engine
selects the BCP clause layout: `watched` (the default, boxed clauses
with two watched literals) or `arena` (a flat literal arena with
blocking-literal watches). Both produce identical verdicts; `arena`
is the faster layout on large proofs.

--proof-format drat switches the proof language to standard DRAT
(drat-trim interchange: clause additions plus `d` deletions, text or
binary encoding, auto-detected) and checks it *backward* with
core-first marking — only the steps the refutation depends on are
verified, with a RAT fallback for steps that are not plain RUP. In
this mode --all/--parallel do not apply (the backward pass checks only
marked steps by construction) and are usage errors; without --stream,
--checkpoint/--resume do not apply either. --emit-lrat <path> writes
the LRAT certificate captured during the pass (re-checkable with
`satverify lrat` or any standard LRAT checker); --emit-trimmed <path>
writes the trimmed DRAT proof; --emit-binary selects the binary
encodings for both. The grammars and a worked example live in
docs/FORMATS.md.

--stream (requires --proof-format drat and a *binary* DRAT proof)
switches to the windowed streaming checker: the proof is indexed in
one forward pass, then checked backward window by window so resident
proof state never exceeds --memory-budget <mb> (default 64). Under
memory pressure the checker degrades (clause-store rebuild, then
window shrink down to --window-kb floors) before reporting
exhaustion — an out-of-budget run is `s UNKNOWN`, never a verdict.
With --checkpoint <path> a durable checkpoint (atomic write-rename)
is saved at every window boundary; --resume continues a killed run
from the last boundary and finishes with the identical verdict.
--window-kb sets the initial window size, --granule-kb the index
spacing (persisted in the checkpoint; the saved value wins on
resume). --event-log <path> appends one JSON line per stream
lifecycle event (schema in docs/OBSERVABILITY.md). --emit-lrat and
--emit-trimmed are not available in streaming mode.

Budget flags bound the run. A run that hits a limit stops with
`s UNKNOWN` — an exhausted budget is never a verdict. With
--checkpoint <path>, an interrupted sequential run saves its progress
there; --resume continues from it. A checkpoint records fingerprints
of the formula and proof it belongs to: resuming against different
inputs is refused as a usage error.

EXIT CODES:
    0    s VERIFIED      the proof derives the empty clause
    1    s NOT VERIFIED  the proof was rejected (with the failing step)
    2    usage error     bad flags, or a checkpoint that does not match
                         the given formula/proof (fingerprint mismatch),
                         or (--stream) a corrupt/unreadable checkpoint
    3    malformed input the formula, proof, or checkpoint file could
                         not be read or parsed, or (--stream) an I/O
                         fault while reading the proof
    4    s UNKNOWN       a budget limit was hit before a verdict
";

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    if take_flag(&mut args, "--help") || take_flag(&mut args, "-h") {
        print!("{CHECK_HELP}");
        return Ok(ExitCode::SUCCESS);
    }
    let obs_opts = ObsOptions::take(&mut args);
    let all = take_flag(&mut args, "--all");
    let checkpoint_path = take_option(&mut args, "--checkpoint");
    let resume = take_flag(&mut args, "--resume");
    let stream = take_flag(&mut args, "--stream");
    let memory_budget_mb = take_u64_option(&mut args, "--memory-budget")?;
    let window_kb = take_u64_option(&mut args, "--window-kb")?;
    let granule_kb = take_u64_option(&mut args, "--granule-kb")?;
    let event_log = take_option(&mut args, "--event-log");
    let proof_format = take_option(&mut args, "--proof-format");
    let emit = EmitOptions {
        lrat: take_option(&mut args, "--emit-lrat"),
        trimmed: take_option(&mut args, "--emit-trimmed"),
        binary: take_flag(&mut args, "--emit-binary"),
    };
    let usage = |msg: String| {
        eprintln!("error: {msg}");
        Ok(ExitCode::from(EXIT_USAGE))
    };
    let drat = match proof_format.as_deref() {
        None | Some("native") => false,
        Some("drat") => true,
        Some(other) => {
            return usage(format!("bad --proof-format {other:?} (native|drat)"))
        }
    };
    let parallel = match take_u64_option(&mut args, "--parallel") {
        Ok(n) => n,
        Err(msg) => return usage(msg),
    };
    let engine = match take_option(&mut args, "--engine") {
        Some(name) => match name.parse::<PropagatorChoice>() {
            Ok(choice) => choice,
            Err(e) => return usage(e),
        },
        None => PropagatorChoice::Watched,
    };
    let budget = match take_budget(&mut args) {
        Ok(b) => b,
        Err(msg) => return usage(msg),
    };
    if !drat && (emit.lrat.is_some() || emit.trimmed.is_some() || emit.binary) {
        return usage(
            "--emit-lrat/--emit-trimmed/--emit-binary require \
             --proof-format drat"
                .into(),
        );
    }
    if stream && !drat {
        return usage("--stream requires --proof-format drat".into());
    }
    if stream && (emit.lrat.is_some() || emit.trimmed.is_some()) {
        return usage(
            "--emit-lrat/--emit-trimmed are not available with --stream \
             (windows are discarded after checking)"
                .into(),
        );
    }
    if !stream
        && (event_log.is_some()
            || memory_budget_mb.is_some()
            || window_kb.is_some()
            || granule_kb.is_some())
    {
        return usage(
            "--memory-budget/--window-kb/--granule-kb/--event-log \
             require --stream"
                .into(),
        );
    }
    if drat && (all || parallel.is_some()) {
        // the backward pass checks only marked steps by construction:
        // nothing to parallelise
        return usage(
            "--proof-format drat is checked backward; \
             --all/--parallel do not apply"
                .into(),
        );
    }
    if drat && !stream && (checkpoint_path.is_some() || resume) {
        // the in-memory backward pass mutates the clause arena in
        // place and is unresumable; only the windowed checker can stop
        // at a boundary
        return usage(
            "--checkpoint/--resume with --proof-format drat require \
             --stream"
                .into(),
        );
    }
    if resume && checkpoint_path.is_none() {
        return usage("--resume requires --checkpoint <path>".into());
    }
    if resume && parallel.is_some() {
        return usage("--resume is sequential; drop --parallel".into());
    }
    let [cnf_path, proof_path] = args.as_slice() else {
        return usage("usage: satverify check <cnf> <proof> [options]".into());
    };
    if stream {
        let mut config = StreamConfig::default();
        if let Some(mb) = memory_budget_mb {
            config.memory_budget = mb.saturating_mul(1024 * 1024);
        }
        if let Some(kb) = window_kb {
            config.window_bytes = kb.saturating_mul(1024);
        }
        if let Some(kb) = granule_kb {
            config.index_granule_bytes = kb.saturating_mul(1024);
        }
        config.checkpoint = checkpoint_path.as_deref().map(Into::into);
        return check_drat_stream(
            cnf_path,
            proof_path,
            budget,
            engine,
            &config,
            resume,
            event_log.as_deref(),
            &obs_opts,
        );
    }
    if drat {
        return check_drat(cnf_path, proof_path, budget, engine, &emit, &obs_opts);
    }
    let (formula, proof) = match load_inputs(cnf_path, proof_path) {
        Ok(inputs) => inputs,
        Err(code) => return Ok(code),
    };
    let malformed = |msg: String| {
        eprintln!("error: {msg}");
        Ok(ExitCode::from(EXIT_MALFORMED))
    };
    let mut report = RunReport::new("check");
    report.instance_path = Some(cnf_path.clone());
    report.num_vars = Some(formula.num_vars());
    report.num_clauses = Some(formula.num_clauses());
    report.proof = Some(ProofStats::of(&proof));

    let harness = Harness::with_budget(budget);
    let mut summary = HarnessSummary::default();
    let mode = if all || parallel.is_some() {
        CheckMode::All
    } else {
        CheckMode::MarkedOnly
    };
    let resume_from = match checkpoint_path.as_deref().filter(|_| resume) {
        Some(path) if Path::new(path).exists() => match Checkpoint::load(Path::new(path)) {
            Ok(cp) => Some(cp),
            Err(e) => return malformed(format!("{path}: {e}")),
        },
        Some(path) => {
            println!("c no checkpoint at {path}; starting fresh");
            None
        }
        None => None,
    };
    summary.resumed = resume_from.is_some();
    let outcome = match (&resume_from, parallel) {
        (Some(cp), _) => match resume_verification_with_engine(
            &formula, &proof, cp, &harness, engine,
        ) {
            Ok(outcome) => outcome,
            // a checkpoint for different inputs is the caller's mistake
            // (wrong file paths), not corrupt data: usage, not malformed
            Err(e @ CheckpointError::Mismatch(_)) => {
                return usage(format!(
                    "cannot resume: {e}; pass the formula and proof the \
                     checkpoint was written for, or delete it"
                ))
            }
            Err(e) => return malformed(format!("cannot resume: {e}")),
        },
        (None, Some(threads)) => {
            let threads = usize::try_from(threads).unwrap_or(usize::MAX).max(1);
            verify_all_parallel_harnessed_with_engine(
                &formula, &proof, threads, &harness, engine,
            )
        }
        (None, None) => {
            verify_harnessed_with_engine(&formula, &proof, mode, &harness, engine)
        }
    };
    match outcome {
        Outcome::Verified(v) => {
            println!("s VERIFIED");
            println!("c {}", v.report);
            println!("c proof: {}", ProofStats::of(&proof));
            summary.outcome = "verified".to_string();
            summary.steps_checked = Some(v.report.num_checked);
            summary.steps_total = Some(proof.len());
            report.result = Some("VERIFIED".to_string());
            report.verify_time = Some(v.report.verify_time);
            report.verification = Some(v.report);
            report.harness = Some(summary);
            obs_opts.emit(report)?;
            Ok(ExitCode::from(EXIT_VERIFIED))
        }
        Outcome::Rejected { step, error } => {
            println!("s NOT VERIFIED");
            println!("c {error}");
            if let Some(step) = step {
                println!("c failing proof clause: step {step}");
            }
            summary.outcome = "rejected".to_string();
            summary.rejected_step = step;
            summary.steps_total = Some(proof.len());
            report.result = Some("NOT VERIFIED".to_string());
            report.harness = Some(summary);
            obs_opts.emit(report)?;
            Ok(ExitCode::from(EXIT_REJECTED))
        }
        Outcome::Exhausted { reason, progress, checkpoint } => {
            println!("s UNKNOWN");
            println!(
                "c budget exhausted ({reason}) after {}/{} checks — no verdict",
                progress.steps_checked, progress.steps_total
            );
            summary.outcome = "exhausted".to_string();
            summary.exhaust_reason = Some(reason.to_string());
            summary.steps_checked = Some(progress.steps_checked);
            summary.steps_total = Some(progress.steps_total);
            if let (Some(path), Some(cp)) = (&checkpoint_path, checkpoint) {
                cp.save(Path::new(path))
                    .map_err(|e| format!("cannot write checkpoint: {e}"))?;
                println!("c checkpoint written to {path}; rerun with --resume");
                summary.checkpoint_path = Some(path.clone());
            }
            report.result = Some("UNKNOWN".to_string());
            report.harness = Some(summary);
            obs_opts.emit(report)?;
            Ok(ExitCode::from(EXIT_EXHAUSTED))
        }
    }
}

/// The `check --proof-format drat` output options: where to write the
/// captured LRAT certificate and the trimmed proof, and whether to use
/// the binary encodings.
struct EmitOptions {
    lrat: Option<String>,
    trimmed: Option<String>,
    binary: bool,
}

/// The DRAT branch of `satverify check`: parse the standard-format
/// proof (text or binary), check it backward with core-first marking,
/// and write the requested LRAT/trimmed-DRAT artifacts on success. The
/// exit-code contract is identical to the native branch.
fn check_drat(
    cnf_path: &str,
    proof_path: &str,
    budget: proofver::Budget,
    engine: PropagatorChoice,
    emit: &EmitOptions,
    obs_opts: &ObsOptions,
) -> Result<ExitCode, String> {
    let malformed = |msg: String| {
        eprintln!("error: {msg}");
        Ok(ExitCode::from(EXIT_MALFORMED))
    };
    let formula = match load_formula(cnf_path) {
        Ok(f) => f,
        Err(msg) => return malformed(msg),
    };
    let bytes = match std::fs::read(proof_path) {
        Ok(b) => b,
        Err(e) => return malformed(format!("cannot open {proof_path}: {e}")),
    };
    let proof = match proofver::parse_drat(&bytes) {
        Ok(p) => p,
        Err(e) => return malformed(format!("{proof_path}: {e}")),
    };
    let mut report = RunReport::new("check");
    report.instance_path = Some(cnf_path.to_string());
    report.num_vars = Some(formula.num_vars());
    report.num_clauses = Some(formula.num_clauses());
    let mut summary = HarnessSummary::default();
    let harness = Harness::with_budget(budget);
    match proofver::verify_drat_backward_harnessed(&formula, &proof, &harness, engine) {
        proofver::DratOutcome::Verified(v) => {
            println!("s VERIFIED");
            println!(
                "c {} of {} additions checked ({} RUP, {} RAT, {} resolvent checks)",
                v.num_checked,
                proof.num_adds(),
                v.stats.num_rup,
                v.stats.num_rat,
                v.stats.num_resolvent_checks
            );
            println!(
                "c core: {} of {} original clauses",
                v.core.len(),
                formula.num_clauses()
            );
            if let Some(path) = &emit.lrat {
                let file = File::create(path)
                    .map_err(|e| format!("cannot create {path}: {e}"))?;
                let mut writer = BufWriter::new(file);
                if emit.binary {
                    proofver::encode_lrat(&mut writer, &v.lrat)
                } else {
                    proofver::write_lrat(&mut writer, &v.lrat)
                }
                .map_err(|e| format!("{path}: {e}"))?;
                println!("c LRAT certificate written to {path}");
            }
            if let Some(path) = &emit.trimmed {
                let trimmed = proofver::trim_drat(&proof, &v);
                let file = File::create(path)
                    .map_err(|e| format!("cannot create {path}: {e}"))?;
                let mut writer = BufWriter::new(file);
                if emit.binary {
                    proofver::encode_drat(&mut writer, &trimmed)
                } else {
                    proofver::write_drat(&mut writer, &trimmed)
                }
                .map_err(|e| format!("{path}: {e}"))?;
                println!(
                    "c trimmed proof written to {path} ({} -> {} steps)",
                    proof.steps().len(),
                    trimmed.steps().len()
                );
            }
            summary.outcome = "verified".to_string();
            summary.steps_checked = Some(v.num_checked);
            summary.steps_total = Some(proof.num_adds());
            report.result = Some("VERIFIED".to_string());
            report.harness = Some(summary);
            obs_opts.emit(report)?;
            Ok(ExitCode::from(EXIT_VERIFIED))
        }
        proofver::DratOutcome::Rejected { step, error } => {
            println!("s NOT VERIFIED");
            println!("c {error}");
            if let Some(step) = step {
                println!("c failing proof addition: step {step}");
            }
            summary.outcome = "rejected".to_string();
            summary.rejected_step = step;
            summary.steps_total = Some(proof.num_adds());
            report.result = Some("NOT VERIFIED".to_string());
            report.harness = Some(summary);
            obs_opts.emit(report)?;
            Ok(ExitCode::from(EXIT_REJECTED))
        }
        proofver::DratOutcome::Exhausted { reason, progress } => {
            println!("s UNKNOWN");
            println!(
                "c budget exhausted ({reason}) after {}/{} checks — no verdict",
                progress.steps_checked, progress.steps_total
            );
            summary.outcome = "exhausted".to_string();
            summary.exhaust_reason = Some(reason.to_string());
            summary.steps_checked = Some(progress.steps_checked);
            summary.steps_total = Some(progress.steps_total);
            report.result = Some("UNKNOWN".to_string());
            report.harness = Some(summary);
            obs_opts.emit(report)?;
            Ok(ExitCode::from(EXIT_EXHAUSTED))
        }
    }
}

/// The `check --stream` branch: windowed backward verification of a
/// binary DRAT proof under a memory budget, with durable window-boundary
/// checkpoints. Exit codes extend the `check` contract: a checkpoint
/// problem (corrupt JSON, fingerprint mismatch) is a usage error (2),
/// any other environmental failure (proof I/O fault, parse error,
/// changed file) is malformed input (3) — never a verdict.
#[allow(clippy::too_many_arguments)]
fn check_drat_stream(
    cnf_path: &str,
    proof_path: &str,
    budget: Budget,
    engine: PropagatorChoice,
    config: &StreamConfig,
    resume: bool,
    event_log: Option<&str>,
    obs_opts: &ObsOptions,
) -> Result<ExitCode, String> {
    let usage = |msg: String| {
        eprintln!("error: {msg}");
        Ok(ExitCode::from(EXIT_USAGE))
    };
    let malformed = |msg: String| {
        eprintln!("error: {msg}");
        Ok(ExitCode::from(EXIT_MALFORMED))
    };
    let formula = match load_formula(cnf_path) {
        Ok(f) => f,
        Err(msg) => return malformed(msg),
    };
    let resume_from = match config.checkpoint.as_deref().filter(|_| resume) {
        Some(path) if path.exists() => match StreamCheckpoint::load(path) {
            Ok(cp) => Some(cp),
            // a checkpoint that cannot be read back — torn by a crash,
            // truncated, hand-edited — must be surfaced, never silently
            // restarted from scratch
            Err(e) => {
                return usage(format!(
                    "cannot resume from {}: {e}; delete the checkpoint to \
                     start fresh",
                    path.display()
                ))
            }
        },
        Some(path) => {
            println!("c no checkpoint at {}; starting fresh", path.display());
            None
        }
        None => None,
    };
    let events = match event_log {
        Some(path) => match obs::EventLog::create(Path::new(path)) {
            Ok(log) => Some(log),
            Err(e) => return malformed(format!("cannot create {path}: {e}")),
        },
        None => None,
    };
    let mut report = RunReport::new("check");
    report.instance_path = Some(cnf_path.to_string());
    report.num_vars = Some(formula.num_vars());
    report.num_clauses = Some(formula.num_clauses());
    let mut summary = HarnessSummary {
        resumed: resume_from.is_some(),
        ..Default::default()
    };
    let harness = Harness::with_budget(budget);
    let outcome = proofver::verify_drat_stream(
        &formula,
        Path::new(proof_path),
        &harness,
        config,
        engine,
        resume_from.as_ref(),
        events.as_ref(),
    );
    match outcome {
        StreamOutcome::Verified(v) => {
            println!("s VERIFIED");
            println!(
                "c {} of {} additions checked in {} windows \
                 ({} shrinks, {} rebuilds)",
                v.num_checked, v.total_adds, v.windows, v.window_shrinks,
                v.arena_rebuilds
            );
            println!(
                "c peak residency {} of {} budget bytes over a {}-byte proof",
                v.peak_residency, config.memory_budget, v.proof_bytes
            );
            println!(
                "c core: {} of {} original clauses",
                v.core.len(),
                formula.num_clauses()
            );
            summary.outcome = "verified".to_string();
            summary.steps_checked = Some(v.num_checked);
            summary.steps_total = Some(v.total_adds as usize);
            report.result = Some("VERIFIED".to_string());
            report.harness = Some(summary);
            obs_opts.emit(report)?;
            Ok(ExitCode::from(EXIT_VERIFIED))
        }
        StreamOutcome::Rejected { step, error } => {
            println!("s NOT VERIFIED");
            println!("c {error}");
            if let Some(step) = step {
                println!("c failing proof addition: step {step}");
            }
            summary.outcome = "rejected".to_string();
            summary.rejected_step = step;
            report.result = Some("NOT VERIFIED".to_string());
            report.harness = Some(summary);
            obs_opts.emit(report)?;
            Ok(ExitCode::from(EXIT_REJECTED))
        }
        StreamOutcome::Exhausted { reason, progress, checkpointed } => {
            println!("s UNKNOWN");
            println!(
                "c budget exhausted ({reason}) after {}/{} checks — no verdict",
                progress.steps_checked, progress.steps_total
            );
            summary.outcome = "exhausted".to_string();
            summary.exhaust_reason = Some(reason.to_string());
            summary.steps_checked = Some(progress.steps_checked);
            summary.steps_total = Some(progress.steps_total);
            if checkpointed {
                if let Some(path) = &config.checkpoint {
                    println!(
                        "c checkpoint at {}; rerun with --resume",
                        path.display()
                    );
                    summary.checkpoint_path =
                        Some(path.display().to_string());
                }
            }
            report.result = Some("UNKNOWN".to_string());
            report.harness = Some(summary);
            obs_opts.emit(report)?;
            Ok(ExitCode::from(EXIT_EXHAUSTED))
        }
        StreamOutcome::Failed(StreamError::Checkpoint(e)) => usage(format!(
            "checkpoint problem: {e}; fix or delete the checkpoint file"
        )),
        StreamOutcome::Failed(e) => malformed(e.to_string()),
    }
}

/// `satverify lrat`: replay an LRAT certificate against a formula with
/// the strict in-repo hint checker. Closes the emit→re-validate loop
/// (`check --proof-format drat --emit-lrat out.lrat` then
/// `lrat <cnf> out.lrat`) without leaving the toolchain.
fn cmd_lrat(args: &[String]) -> Result<ExitCode, String> {
    let [cnf_path, lrat_path] = args else {
        eprintln!("usage: satverify lrat <cnf> <lrat>");
        return Ok(ExitCode::from(EXIT_USAGE));
    };
    let malformed = |msg: String| {
        eprintln!("error: {msg}");
        Ok(ExitCode::from(EXIT_MALFORMED))
    };
    let formula = match load_formula(cnf_path) {
        Ok(f) => f,
        Err(msg) => return malformed(msg),
    };
    let bytes = match std::fs::read(lrat_path) {
        Ok(b) => b,
        Err(e) => return malformed(format!("cannot open {lrat_path}: {e}")),
    };
    let proof = match proofver::parse_lrat(&bytes) {
        Ok(p) => p,
        Err(e) => return malformed(format!("{lrat_path}: {e}")),
    };
    match proofver::check_lrat(&formula, &proof) {
        Ok(stats) => {
            println!("s VERIFIED");
            println!(
                "c {} addition lines ({} RAT), {} deletion lines",
                stats.num_add_lines, stats.num_rat_lines, stats.num_delete_lines
            );
            Ok(ExitCode::from(EXIT_VERIFIED))
        }
        Err(e) => {
            println!("s NOT VERIFIED");
            println!("c {e}");
            Ok(ExitCode::from(EXIT_REJECTED))
        }
    }
}

/// Exit code for `client check` when the daemon refused admission
/// (queue full or draining): the job was never run, so none of the
/// verdict codes apply, and it is not the caller's usage error either.
const EXIT_UNAVAILABLE: u8 = 5;

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let listen =
        take_option(&mut args, "--listen").unwrap_or_else(|| "tcp:127.0.0.1:0".into());
    let workers = take_u64_option(&mut args, "--workers")?;
    let queue_capacity = take_u64_option(&mut args, "--queue-capacity")?;
    let drain_on_stdin = take_flag(&mut args, "--drain-on-stdin-close");
    let event_log = take_option(&mut args, "--event-log");
    let cache_mb = take_u64_option(&mut args, "--cache-mb")?;
    let no_cache = take_flag(&mut args, "--no-cache");
    let io = take_option(&mut args, "--io");
    let budget = take_budget(&mut args)?;
    if !args.is_empty() {
        return Err(format!("unexpected arguments {args:?}; see `satverify help`"));
    }
    let endpoint = Endpoint::parse(&listen)?;
    let mut config = ServerConfig::default().default_budget(budget);
    if let Some(n) = workers {
        config = config.workers(usize::try_from(n).unwrap_or(usize::MAX));
    }
    if let Some(n) = queue_capacity {
        config = config.queue_capacity(usize::try_from(n).unwrap_or(usize::MAX));
    }
    if no_cache {
        if cache_mb.is_some() {
            return Err("--no-cache conflicts with --cache-mb".into());
        }
        config = config.cache_enabled(false);
    } else {
        // the daemon caches by default; the library default is off so
        // embedded servers opt in explicitly
        let bytes = cache_mb
            .map(|mb| mb.saturating_mul(1024 * 1024))
            .unwrap_or(DEFAULT_CACHE_BYTES);
        config = config.cache_bytes(bytes);
    }
    match io.as_deref() {
        None => {}
        Some("reactor") => config = config.io(IoModel::Reactor),
        Some("threads") => config = config.io(IoModel::Threads),
        Some(other) => {
            return Err(format!("bad --io {other:?} (reactor|threads)"))
        }
    }
    if let Some(path) = &event_log {
        let log = obs::EventLog::create(Path::new(path))
            .map_err(|e| format!("cannot create event log {path}: {e}"))?;
        config = config.event_log(std::sync::Arc::new(log));
    }
    let handle = Server::bind(&endpoint, config)
        .map_err(|e| format!("cannot bind {endpoint}: {e}"))?;
    // stdout may be a pipe whose reader hangs up after the banner (or
    // at any point); a serving daemon must never die on EPIPE
    use std::io::Write as _;
    let mut stdout = std::io::stdout();
    let _ = writeln!(stdout, "c satverifyd listening on {}", handle.local_endpoint());
    let _ = writeln!(
        stdout,
        "c drain with: satverify client {} shutdown",
        handle.local_endpoint()
    );
    let _ = stdout.flush();
    if drain_on_stdin {
        let trigger = handle.drain_trigger();
        std::thread::spawn(move || {
            let mut line = String::new();
            loop {
                line.clear();
                match std::io::stdin().read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) if line.trim() == "shutdown" => break,
                    Ok(_) => {}
                }
            }
            trigger.shutdown();
        });
    }
    handle.join();
    // stdout may be a pipe whose reader only wanted the banner; a
    // drained daemon must still exit 0
    let _ = writeln!(std::io::stdout(), "c drained cleanly");
    Ok(ExitCode::SUCCESS)
}

/// `satverify route`: the sharding front tier. Same protocol as
/// `serve`, but jobs are forwarded to a static backend pool by formula
/// fingerprint instead of verified locally.
fn cmd_route(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let listen =
        take_option(&mut args, "--listen").unwrap_or_else(|| "tcp:127.0.0.1:0".into());
    let mut backends = Vec::new();
    while let Some(backend) = take_option(&mut args, "--backend") {
        backends.push(Endpoint::parse(&backend)?);
    }
    let health_interval_ms = take_u64_option(&mut args, "--health-interval-ms")?;
    let event_log = take_option(&mut args, "--event-log");
    if !args.is_empty() {
        return Err(format!("unexpected arguments {args:?}; see `satverify help`"));
    }
    if backends.is_empty() {
        return Err("route needs at least one --backend <ep>".into());
    }
    let endpoint = Endpoint::parse(&listen)?;
    let mut config = RouterConfig::new(backends.clone());
    if let Some(ms) = health_interval_ms {
        config = config.health_interval(Duration::from_millis(ms));
    }
    if let Some(path) = &event_log {
        let log = obs::EventLog::create(Path::new(path))
            .map_err(|e| format!("cannot create event log {path}: {e}"))?;
        config = config.event_log(std::sync::Arc::new(log));
    }
    let handle = Router::bind(&endpoint, config)
        .map_err(|e| format!("cannot bind {endpoint}: {e}"))?;
    // same EPIPE discipline as `serve`: the banner's reader may hang up
    use std::io::Write as _;
    let mut stdout = std::io::stdout();
    let _ = writeln!(stdout, "c satverify-route listening on {}", handle.local_endpoint());
    for (i, backend) in backends.iter().enumerate() {
        let _ = writeln!(stdout, "c   backend {i}: {backend}");
    }
    let _ = writeln!(
        stdout,
        "c drain with: satverify client {} shutdown",
        handle.local_endpoint()
    );
    let _ = stdout.flush();
    handle.join();
    let _ = writeln!(std::io::stdout(), "c drained cleanly");
    Ok(ExitCode::SUCCESS)
}

/// Builds the wire [`BudgetSpec`] from the same budget flags `check`
/// takes locally.
fn take_budget_spec(args: &mut Vec<String>) -> Result<BudgetSpec, String> {
    Ok(BudgetSpec {
        max_propagations: take_u64_option(args, "--max-propagations")?,
        max_clause_visits: take_u64_option(args, "--max-clause-visits")?,
        max_memory_bytes: take_u64_option(args, "--max-memory-mb")?
            .map(|mb| mb.saturating_mul(1024 * 1024)),
        timeout_ms: take_u64_option(args, "--timeout-ms")?,
    })
}

fn cmd_client(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let usage = |msg: &str| {
        eprintln!("error: {msg}");
        eprintln!("usage: satverify client <endpoint> ping|stats|metrics|shutdown");
        eprintln!(
            "       satverify client <endpoint> check <cnf> <proof> \
             [--all] [--by-path] [--proof-format <native|drat>] [--stream] \
             [--no-retry] [budget flags]"
        );
        eprintln!(
            "       satverify client <endpoint> batch <jobs.jsonl> [--no-retry]"
        );
        Ok(ExitCode::from(EXIT_USAGE))
    };
    if args.len() < 2 {
        return usage("missing endpoint or action");
    }
    let no_retry = take_flag(&mut args, "--no-retry");
    let endpoint = Endpoint::parse(&args.remove(0))?;
    let action = args.remove(0);
    let policy = if no_retry {
        RetryPolicy::no_retry()
    } else {
        RetryPolicy::default()
    };
    let mut client = match Client::connect_with_retry(&endpoint, &policy) {
        Ok(client) => client,
        // an unreachable daemon is the same operational condition as a
        // draining one: the job never ran, nothing about its inputs is
        // known to be wrong
        Err(e) => {
            eprintln!("error: cannot connect to {endpoint}: {e}");
            return Ok(ExitCode::from(EXIT_UNAVAILABLE));
        }
    };
    let roundtrip = |client: &mut Client, request: &WireRequest| {
        client.request(request).map_err(|e| format!("{endpoint}: {e}"))
    };
    match action.as_str() {
        "ping" => match roundtrip(&mut client, &WireRequest::Ping)? {
            WireResponse::Pong => {
                println!("c pong");
                Ok(ExitCode::SUCCESS)
            }
            other => Err(format!("unexpected response {other:?}")),
        },
        "shutdown" => match roundtrip(&mut client, &WireRequest::Shutdown)? {
            WireResponse::ShuttingDown => {
                println!("c daemon draining");
                Ok(ExitCode::SUCCESS)
            }
            other => Err(format!("unexpected response {other:?}")),
        },
        "stats" => match roundtrip(&mut client, &WireRequest::Stats)? {
            WireResponse::Stats(stats) => {
                println!("c counters:");
                for (name, value) in &stats.counters {
                    println!("c   {name:<20} {value}");
                }
                println!("c queue_depth          {}", stats.queue_depth);
                println!("c in_flight            {}", stats.in_flight);
                if !stats.latency_us.is_empty() {
                    println!(
                        "c latency_us (count, p50, p90, p99, min, max):"
                    );
                    for (name, s) in &stats.latency_us {
                        println!(
                            "c   {name:<12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
                            s.count, s.p50, s.p90, s.p99, s.min, s.max
                        );
                    }
                }
                println!("c latency_ms buckets (le, count):");
                for (le, count) in &stats.latency_buckets {
                    println!("c   {le:>12} {count}");
                }
                Ok(ExitCode::SUCCESS)
            }
            other => Err(format!("unexpected response {other:?}")),
        },
        "metrics" => match roundtrip(&mut client, &WireRequest::Metrics)? {
            WireResponse::Metrics { text } => {
                print!("{text}");
                Ok(ExitCode::SUCCESS)
            }
            other => Err(format!("unexpected response {other:?}")),
        },
        "check" => {
            let all = take_flag(&mut args, "--all");
            let by_path = take_flag(&mut args, "--by-path");
            let stream = take_flag(&mut args, "--stream");
            let proof_format = take_option(&mut args, "--proof-format");
            match proof_format.as_deref() {
                None | Some("native") | Some("drat") => {}
                Some(other) => {
                    return usage(&format!(
                        "bad --proof-format {other:?} (native|drat)"
                    ))
                }
            }
            if proof_format.as_deref() == Some("drat") && all {
                return usage("drat jobs are checked backward; drop --all");
            }
            if stream && proof_format.as_deref() != Some("drat") {
                return usage("--stream requires --proof-format drat");
            }
            if stream && !by_path {
                return usage(
                    "--stream requires --by-path (the daemon streams a \
                     server-local binary DRAT file)",
                );
            }
            let budget = take_budget_spec(&mut args)?;
            let [cnf_path, proof_path] = args.as_slice() else {
                return usage("client check needs <cnf> <proof>");
            };
            let mut request = VerifyRequest {
                mode: all.then(|| "all".to_string()),
                proof_format,
                stream,
                budget,
                ..VerifyRequest::default()
            };
            if by_path {
                request.formula_path = Some(cnf_path.clone());
                request.proof_path = Some(proof_path.clone());
            } else {
                // ship file contents so the daemon works across hosts
                request.formula = Some(
                    std::fs::read_to_string(cnf_path)
                        .map_err(|e| format!("cannot read {cnf_path}: {e}"))?,
                );
                request.proof = Some(
                    std::fs::read_to_string(proof_path)
                        .map_err(|e| format!("cannot read {proof_path}: {e}"))?,
                );
            }
            let response =
                roundtrip(&mut client, &WireRequest::Verify(request))?;
            report_remote_check(&response)
        }
        "batch" => {
            let [path] = args.as_slice() else {
                return usage("client batch needs <jobs.jsonl>");
            };
            let jobs = match load_batch(path) {
                Ok(jobs) => jobs,
                Err(msg) => return usage(&msg),
            };
            if jobs.is_empty() {
                return usage(&format!("{path}: no jobs"));
            }
            run_batch(&mut client, &endpoint, jobs)
        }
        other => usage(&format!("unknown client action {other:?}")),
    }
}

/// Parses a JSONL batch file: one verify job per non-empty line. Jobs
/// without an `id` get `job-<line>` so every response can be matched
/// back to its submission.
fn load_batch(path: &str) -> Result<Vec<VerifyRequest>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut jobs = Vec::new();
    for (index, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let mut job = VerifyRequest::from_json_line(line)
            .map_err(|e| format!("{path}:{}: {e}", index + 1))?;
        if job.id.is_none() {
            job.id = Some(format!("job-{}", index + 1));
        }
        jobs.push(job);
    }
    Ok(jobs)
}

/// Submits the whole batch in one pipelined round trip, collects the
/// per-job responses (which arrive in completion order), and prints one
/// line per job in submission order. The exit code is the worst job's,
/// by operational severity: unavailable > malformed > rejected >
/// exhausted > verified.
fn run_batch(
    client: &mut Client,
    endpoint: &Endpoint,
    jobs: Vec<VerifyRequest>,
) -> Result<ExitCode, String> {
    use std::collections::HashMap;
    let ids: Vec<String> =
        jobs.iter().map(|j| j.id.clone().expect("assigned above")).collect();
    client
        .send(&WireRequest::Batch(jobs))
        .map_err(|e| format!("{endpoint}: {e}"))?;
    // every submission gets exactly one terminal disposition; duplicate
    // ids are legal (and interesting — they exercise the verdict
    // cache), so bucket responses per id and drain in submission order
    let mut by_id: HashMap<String, Vec<WireResponse>> = HashMap::new();
    for _ in 0..ids.len() {
        let response = client.recv().map_err(|e| format!("{endpoint}: {e}"))?;
        let id = match &response {
            WireResponse::Result(r) => r.id.clone(),
            WireResponse::Error { id, .. } => id.clone(),
            other => return Err(format!("unexpected response {other:?}")),
        };
        let Some(id) = id else {
            return Err(format!("response without an id: {response:?}"));
        };
        by_id.entry(id).or_default().push(response);
    }
    let mut worst = ExitCode::SUCCESS;
    let mut worst_rank = 0;
    for id in &ids {
        let response = by_id
            .get_mut(id)
            .and_then(|bucket| (!bucket.is_empty()).then(|| bucket.remove(0)))
            .ok_or_else(|| format!("no response for job {id:?}"))?;
        let (line, code, rank) = batch_line(&response);
        println!("{id}: {line}");
        if rank > worst_rank {
            worst_rank = rank;
            worst = code;
        }
    }
    Ok(worst)
}

/// One result line for `client batch`, plus the job's exit code and its
/// severity rank for worst-of aggregation.
fn batch_line(response: &WireResponse) -> (String, ExitCode, u8) {
    match response {
        WireResponse::Result(r) => match r.outcome.as_str() {
            "verified" => {
                let checked = r.steps_checked.unwrap_or(0);
                (
                    format!("s VERIFIED ({checked} clauses checked)"),
                    ExitCode::from(EXIT_VERIFIED),
                    0,
                )
            }
            "rejected" => {
                let detail = r.detail.as_deref().unwrap_or("proof rejected");
                (
                    format!("s NOT VERIFIED ({detail})"),
                    ExitCode::from(EXIT_REJECTED),
                    2,
                )
            }
            "exhausted" => {
                let reason = r.exhaust_reason.as_deref().unwrap_or("budget");
                (
                    format!("s UNKNOWN (budget exhausted: {reason})"),
                    ExitCode::from(EXIT_EXHAUSTED),
                    1,
                )
            }
            other => (
                format!("unknown outcome {other:?}"),
                ExitCode::from(EXIT_MALFORMED),
                3,
            ),
        },
        WireResponse::Error { code, message, .. } => match code {
            WireError::Overloaded | WireError::Draining => (
                format!("error: {message}"),
                ExitCode::from(EXIT_UNAVAILABLE),
                4,
            ),
            WireError::InvalidInput => (
                format!("error: {message}"),
                ExitCode::from(EXIT_MALFORMED),
                3,
            ),
            WireError::BadRequest | WireError::Internal => (
                format!("error: {message}"),
                ExitCode::from(EXIT_MALFORMED),
                3,
            ),
        },
        other => (
            format!("unexpected response {other:?}"),
            ExitCode::from(EXIT_MALFORMED),
            3,
        ),
    }
}

/// Prints a remote `check`'s response in the local `check` style and
/// maps it onto the exit-code contract.
fn report_remote_check(response: &WireResponse) -> Result<ExitCode, String> {
    match response {
        WireResponse::Result(result) => {
            let checked = result.steps_checked.unwrap_or(0);
            let total = result.steps_total.unwrap_or(0);
            match result.outcome.as_str() {
                "verified" => {
                    println!("s VERIFIED");
                    println!("c {checked} clauses checked");
                    Ok(ExitCode::from(EXIT_VERIFIED))
                }
                "rejected" => {
                    println!("s NOT VERIFIED");
                    if let Some(detail) = &result.detail {
                        println!("c {detail}");
                    }
                    if let Some(step) = result.rejected_step {
                        println!("c failing proof clause: step {step}");
                    }
                    Ok(ExitCode::from(EXIT_REJECTED))
                }
                "exhausted" => {
                    println!("s UNKNOWN");
                    let reason = result.exhaust_reason.as_deref().unwrap_or("budget");
                    println!(
                        "c budget exhausted ({reason}) after {checked}/{total} \
                         checks — no verdict"
                    );
                    Ok(ExitCode::from(EXIT_EXHAUSTED))
                }
                other => Err(format!("unknown outcome {other:?}")),
            }
        }
        WireResponse::Error { code, message, .. } => {
            eprintln!("error: daemon: {message}");
            match code {
                WireError::Overloaded | WireError::Draining => {
                    Ok(ExitCode::from(EXIT_UNAVAILABLE))
                }
                WireError::InvalidInput => Ok(ExitCode::from(EXIT_MALFORMED)),
                WireError::BadRequest => Ok(ExitCode::from(EXIT_USAGE)),
                WireError::Internal => Err(message.clone()),
            }
        }
        other => Err(format!("unexpected response {other:?}")),
    }
}

fn cmd_drat(args: &[String]) -> Result<ExitCode, String> {
    let [cnf_path, proof_path] = args else {
        eprintln!("usage: satverify drat <cnf> <proof>");
        return Ok(ExitCode::from(EXIT_USAGE));
    };
    let (formula, proof) = match load_inputs(cnf_path, proof_path) {
        Ok(inputs) => inputs,
        Err(code) => return Ok(code),
    };
    match proofver::verify_drat(&formula, &proof) {
        Ok(stats) => {
            println!("s VERIFIED");
            println!(
                "c {} RUP steps, {} RAT steps ({} resolvent checks)",
                stats.num_rup, stats.num_rat, stats.num_resolvent_checks
            );
            Ok(ExitCode::from(EXIT_VERIFIED))
        }
        Err(e) => {
            println!("s NOT VERIFIED");
            println!("c {e}");
            Ok(ExitCode::from(EXIT_REJECTED))
        }
    }
}

fn cmd_core(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let minimize = take_flag(&mut args, "--minimize");
    let mus = take_flag(&mut args, "--mus");
    let out = take_option(&mut args, "--out");
    let [path] = args.as_slice() else {
        return Err("usage: satverify core <cnf> [--minimize|--mus] [--out <file>]".into());
    };
    let formula = load_formula(path)?;
    let (indices, core_formula) = if mus {
        let core = minimal_core_of_verified(&formula, SolverConfig::default())
            .map_err(|e| e.to_string())?;
        println!("c minimal core after {} incremental queries", core.num_queries);
        let core_formula = core.to_formula(&formula);
        (core.indices, core_formula)
    } else if minimize {
        let core = minimize_core(&formula, SolverConfig::default(), 16)
            .map_err(|e| e.to_string())?;
        println!("c core trajectory: {:?}", core.trajectory);
        (core.indices.clone(), core.formula)
    } else {
        match solve_and_verify(&formula, SolverConfig::default())
            .map_err(|e| e.to_string())?
        {
            PipelineOutcome::Sat(_) => {
                println!("s SATISFIABLE");
                return Ok(ExitCode::from(10));
            }
            PipelineOutcome::Unsat(run) => {
                let core = run.verification.core;
                let core_formula = core.to_formula(&formula);
                (core.indices().to_vec(), core_formula)
            }
        }
    };
    println!(
        "c core: {} of {} clauses",
        indices.len(),
        formula.num_clauses()
    );
    println!("c indices: {indices:?}");
    if let Some(out) = out {
        let file = File::create(&out).map_err(|e| format!("cannot create {out}: {e}"))?;
        write_dimacs(BufWriter::new(file), &core_formula)
            .map_err(|e| format!("{out}: {e}"))?;
        println!("c core written to {out}");
    }
    Ok(ExitCode::from(20))
}

fn cmd_trim(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let binary = take_flag(&mut args, "--binary");
    let [cnf_path, proof_in, proof_out] = args.as_slice() else {
        eprintln!("usage: satverify trim <cnf> <proof-in> <proof-out> [--binary]");
        return Ok(ExitCode::from(EXIT_USAGE));
    };
    let (formula, proof) = match load_inputs(cnf_path, proof_in) {
        Ok(inputs) => inputs,
        Err(code) => return Ok(code),
    };
    let (v, trimmed) =
        proofver::verify_and_trim(&formula, &proof).map_err(|e| e.to_string())?;
    println!(
        "c trimmed {} -> {} clauses ({} checked)",
        proof.len(),
        trimmed.len(),
        v.report.num_checked
    );
    write_proof_file(&trimmed, proof_out, binary)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_aig(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let output_index = take_option(&mut args, "--output")
        .map(|v| v.parse::<usize>().map_err(|_| format!("bad --output {v:?}")))
        .transpose()?
        .unwrap_or(0);
    let [path] = args.as_slice() else {
        return Err("usage: satverify aig <aag-file> [--output <i>]".into());
    };
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let parsed = satverify::circuit::parse_aiger(BufReader::new(file))
        .map_err(|e| format!("{path}: {e}"))?;
    let Some(&output) = parsed.outputs.get(output_index) else {
        return Err(format!(
            "output index {output_index} out of range (circuit has {})",
            parsed.outputs.len()
        ));
    };
    if !parsed.latches.is_empty() {
        eprintln!(
            "c note: {} latches treated as free inputs (combinational view)",
            parsed.latches.len()
        );
    }
    let mut enc = parsed.aig.encode();
    enc.assert_edge(output, true);
    let formula = enc.into_formula();
    println!(
        "c {} inputs, {} ands, {} clauses",
        parsed.aig.num_inputs(),
        parsed.aig.num_ands(),
        formula.num_clauses()
    );
    match solve_and_verify(&formula, SolverConfig::default()).map_err(|e| e.to_string())? {
        PipelineOutcome::Sat(_) => {
            println!("s SATISFIABLE");
            println!("c output {output_index} can be 1");
            Ok(ExitCode::from(10))
        }
        PipelineOutcome::Unsat(run) => {
            println!("s UNSATISFIABLE");
            println!("c output {output_index} is constant 0 (verified: {})",
                run.verification.report);
            Ok(ExitCode::from(20))
        }
    }
}

fn cmd_gen(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let out = take_option(&mut args, "--out");
    let Some((family, params)) = args.split_first() else {
        return Err("usage: satverify gen <family> <args..> [--out <file>]".into());
    };
    let p = |i: usize| -> Result<usize, String> {
        params
            .get(i)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{family}: missing/bad argument {i}"))
    };
    if family == "stream-chain" {
        // the streaming-checker workload: a tiny formula with a proof
        // that grows linearly in <links> (~14 bytes each), written as
        // <prefix>.cnf + <prefix>.drat (binary DRAT)
        let links = p(0)?;
        let Some(prefix) = out else {
            return Err(
                "stream-chain: --out <prefix> is required (writes \
                 <prefix>.cnf and <prefix>.drat)"
                    .into(),
            );
        };
        let (formula, proof) = proofver::chain_workload(links);
        let cnf_path = format!("{prefix}.cnf");
        let file = File::create(&cnf_path)
            .map_err(|e| format!("cannot create {cnf_path}: {e}"))?;
        write_dimacs(BufWriter::new(file), &formula)
            .map_err(|e| format!("{cnf_path}: {e}"))?;
        let drat_path = format!("{prefix}.drat");
        let bytes = proofver::encode_drat_to_vec(&proof);
        std::fs::write(&drat_path, &bytes)
            .map_err(|e| format!("{drat_path}: {e}"))?;
        eprintln!(
            "c wrote {} clauses to {cnf_path} and a {}-byte binary DRAT \
             proof ({} steps) to {drat_path}",
            formula.num_clauses(),
            bytes.len(),
            proof.steps().len()
        );
        return Ok(ExitCode::SUCCESS);
    }
    let formula = match family.as_str() {
        "php" => cnfgen::pigeonhole(p(0)?),
        "tseitin" => cnfgen::tseitin_grid(p(0)?, p(1)?),
        "chess" => cnfgen::mutilated_chessboard(p(0)?),
        "pebbling" => cnfgen::pebbling_pyramid(p(0)?),
        "rand3sat" => cnfgen::random_ksat(3, p(0)?, p(1)?, p(2)? as u64),
        "eqv-adder" => cnfgen::eqv_adder(p(0)?),
        "eqv-shifter" => cnfgen::eqv_shifter(p(0)?, p(1)?),
        "pipe-cpu" => cnfgen::pipe_cpu(p(0)?),
        "bmc-counter" => cnfgen::bmc_counter(p(0)?, p(1)?),
        "bmc-lfsr" => cnfgen::bmc_lfsr(p(0)?, p(1)?),
        other => return Err(format!("unknown family {other:?}")),
    };
    match out {
        Some(out) => {
            let file =
                File::create(&out).map_err(|e| format!("cannot create {out}: {e}"))?;
            write_dimacs(BufWriter::new(file), &formula)
                .map_err(|e| format!("{out}: {e}"))?;
            eprintln!(
                "c wrote {} vars, {} clauses to {out}",
                formula.num_vars(),
                formula.num_clauses()
            );
        }
        None => {
            let stdout = std::io::stdout();
            write_dimacs(stdout.lock(), &formula).map_err(|e| e.to_string())?;
        }
    }
    Ok(ExitCode::SUCCESS)
}
