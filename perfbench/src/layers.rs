//! The calls into each layer's public functions, shared by the measured
//! verdicts and the traced probes.
//!
//! Every workload's traced run times every layer on its own inputs: the
//! layers on the workload's path inside its verdict, the others after it,
//! outside the verdict's clock. A layer name is recorded once per
//! verdict, by the first call that makes it.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

use satverify::bcp::{ArenaWatchedPropagator, WatchedPropagator};
use satverify::cnf::{self, CnfFormula};
use satverify::proofver::{
    self, Budget, CheckMode, Checker, DratOutcome, DratProof, Harness, PropagatorChoice,
    StreamConfig, StreamOutcome,
};
use satverifyd::cache::Admit;
use satverifyd::{CacheKey, Request, Response, VerdictCache, VerifyRequest};

use crate::inputs::Instance;
use crate::util::Trace;

/// What one verified input established; the correctness gate compares it
/// across repeats.
#[derive(Clone, Copy, Debug)]
pub struct Verdict {
    pub adds: u64,
    pub core: usize,
    pub checked: usize,
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn parse_cnf_file(path: &Path) -> Result<CnfFormula, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    cnf::parse_dimacs(BufReader::new(file)).map_err(|e| format!("{}: {e}", path.display()))
}

/// An instance's formula and DRAT proof, parsed outside any clock for
/// the probes that need them.
struct Parsed {
    formula: CnfFormula,
    proof: DratProof,
}

impl Parsed {
    fn load(inst: &Instance) -> Result<Parsed, String> {
        let formula = parse_cnf_file(&inst.cnf)?;
        let proof = proofver::parse_drat(&read(&inst.drat)?)
            .map_err(|e| format!("{}: {e}", inst.drat.display()))?;
        Ok(Parsed { formula, proof })
    }
}

/// `satverify check f.cnf p.drat --proof-format drat --emit-lrat out.lrat`
/// followed by `satverify lrat f.cnf out.lrat`, from the same public calls.
pub fn certify(tr: &mut Trace, inst: &Instance, lrat_path: &Path) -> Result<Verdict, String> {
    let formula = tr.span("cnf.parse_ms", || parse_cnf_file(&inst.cnf))?;
    let bytes = read(&inst.drat)?;
    let proof = tr
        .span("drat.parse_ms", || proofver::parse_drat(&bytes))
        .map_err(|e| format!("{}: {e}", inst.drat.display()))?;
    let outcome = tr.span("drat.check_ms", || {
        proofver::verify_drat_backward_harnessed(
            &formula,
            &proof,
            &Harness::default(),
            PropagatorChoice::Watched,
        )
    });
    let v = match outcome {
        DratOutcome::Verified(v) => v,
        other => return Err(format!("{}: backward check gave {other:?}", inst.name)),
    };
    tr.span("lrat.write_ms", || {
        let file = File::create(lrat_path)?;
        let mut out = BufWriter::new(file);
        proofver::write_lrat(&mut out, &v.lrat)?;
        out.flush()
    })
    .map_err(|e| format!("cannot write {}: {e}", lrat_path.display()))?;
    let lrat_bytes = read(lrat_path)?;
    let lrat = tr
        .span("lrat.parse_ms", || proofver::parse_lrat(&lrat_bytes))
        .map_err(|e| format!("{}: {e}", lrat_path.display()))?;
    let stats = tr
        .span("lrat.check_ms", || proofver::check_lrat(&formula, &lrat))
        .map_err(|e| format!("{}: LRAT replay failed: {e}", inst.name))?;
    let adds = proof.num_adds();
    tr.count("drat.adds", adds as f64);
    tr.count("drat.deletes", proof.num_deletes() as f64);
    tr.count("drat.checked", v.num_checked as f64);
    tr.count("drat.tested_ratio", v.num_checked as f64 / adds as f64);
    tr.count(
        "drat.core_ratio",
        v.core.len() as f64 / formula.num_clauses() as f64,
    );
    tr.count("drat.propagations", v.propagations as f64);
    tr.count("drat.clause_visits", v.clause_visits as f64);
    tr.count("lrat.add_lines", stats.num_add_lines as f64);
    tr.count("lrat.bytes", lrat_bytes.len() as f64);
    Ok(Verdict {
        adds: adds as u64,
        core: v.core.len(),
        checked: v.num_checked,
    })
}

/// The clause-store build alone (zero propagation fuel stops the check
/// at its first propagation) and the check on the arena engine.
fn drat_extras(tr: &mut Trace, parsed: &Parsed) -> Result<(), String> {
    let zero = Harness::with_budget(Budget::unlimited().max_propagations(0));
    let built = tr.span("drat.build_ms", || {
        proofver::verify_drat_backward_harnessed(
            &parsed.formula,
            &parsed.proof,
            &zero,
            PropagatorChoice::Watched,
        )
    });
    if !matches!(built, DratOutcome::Exhausted { .. }) {
        return Err(format!("a zero-fuel backward check gave {built:?}"));
    }
    let arena = tr.span("drat.check_arena_ms", || {
        proofver::verify_drat_backward_harnessed(
            &parsed.formula,
            &parsed.proof,
            &Harness::default(),
            PropagatorChoice::ArenaWatched,
        )
    });
    match arena {
        DratOutcome::Verified(_) => Ok(()),
        other => Err(format!("the arena backward check gave {other:?}")),
    }
}

/// The residency budget of the bounded streaming probe, as
/// `satverify check --stream --memory-budget 1`: on the probed proofs
/// windows are re-read and shrunk, and the store is rebuilt when the
/// proof deletes clauses.
pub const BOUNDED_BUDGET: u64 = 1024 * 1024;

/// `satverify check f.cnf p.drat --proof-format drat --stream`: at the
/// default budget, which holds these proofs in one window, and at
/// [`BOUNDED_BUDGET`]; there also the index pass alone (zero fuel) and
/// the arena engine.
fn stream(tr: &mut Trace, inst: &Instance, formula: &CnfFormula) -> Result<(), String> {
    let run = |harness: &Harness, config: &StreamConfig, engine: PropagatorChoice| {
        match proofver::verify_drat_stream(formula, &inst.drat, harness, config, engine, None, None)
        {
            StreamOutcome::Verified(v) => Ok(v),
            other => Err(other),
        }
    };
    let full = Harness::default();
    let bounded = StreamConfig {
        memory_budget: BOUNDED_BUDGET,
        ..StreamConfig::default()
    };
    let failed =
        |what: &str, outcome| format!("{}: {what} streaming check gave {outcome:?}", inst.name);
    tr.span("stream.one_window_ms", || {
        run(&full, &StreamConfig::default(), PropagatorChoice::Watched)
    })
    .map_err(|o| failed("the default", o))?;
    let v = tr
        .span("stream.verify_ms", || {
            run(&full, &bounded, PropagatorChoice::Watched)
        })
        .map_err(|o| failed("the bounded", o))?;
    if v.peak_residency > BOUNDED_BUDGET {
        return Err(format!(
            "{}: residency {} broke the {BOUNDED_BUDGET} byte budget",
            inst.name, v.peak_residency
        ));
    }
    tr.count("stream.windows", v.windows as f64);
    tr.count("stream.window_shrinks", v.window_shrinks as f64);
    tr.count("stream.arena_rebuilds", v.arena_rebuilds as f64);
    tr.count("stream.residency_kb", v.peak_residency as f64 / 1024.0);
    tr.count("stream.proof_mb", v.proof_bytes as f64 / (1024.0 * 1024.0));
    tr.count("stream.propagations", v.propagations as f64);
    tr.count("stream.clause_visits", v.clause_visits as f64);
    let zero = Harness::with_budget(Budget::unlimited().max_propagations(0));
    match tr.span("stream.index_ms", || {
        run(&zero, &bounded, PropagatorChoice::Watched)
    }) {
        Err(StreamOutcome::Exhausted { .. }) => {}
        other => {
            return Err(format!(
                "{}: a zero-fuel streaming check gave {other:?}",
                inst.name
            ))
        }
    }
    tr.span("stream.verify_arena_ms", || {
        run(&full, &bounded, PropagatorChoice::ArenaWatched)
    })
    .map_err(|o| failed("the arena", o))?;
    Ok(())
}

/// One instance's daemon request lines, newline-terminated as sent: the
/// byte-identical repeat a hit sends, and a miss made fresh by a leading
/// comment line.
pub struct Requests {
    pub formula: String,
    pub proof: String,
    pub hit: String,
}

impl Requests {
    pub fn load(inst: &Instance) -> Result<Requests, String> {
        let text = |p: &Path| {
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
        };
        let formula = text(&inst.cnf)?;
        let proof = text(&inst.proof)?;
        let hit = format!("{}\n", Request::verify_inline(&formula, &proof).to_line());
        Ok(Requests {
            formula,
            proof,
            hit,
        })
    }

    /// A miss: the same verification work behind a unique comment line.
    pub fn miss(&self, tag: &str) -> String {
        let formula = format!("c perfbench {tag}\n{}", self.formula);
        format!(
            "{}\n",
            Request::verify_inline(&formula, &self.proof).to_line()
        )
    }
}

/// Parses a request line as the server does, without its newline.
fn verify_request(line: &str) -> Result<VerifyRequest, String> {
    match Request::parse(line.trim_end_matches('\n'))? {
        Request::Verify(v) => Ok(v),
        other => Err(format!("expected a verify request, parsed {other:?}")),
    }
}

/// A standalone verdict cache warmed with every instance's hit key, for
/// timing the lookup a hit makes.
pub fn warmed_cache(requests: &[Requests]) -> Result<VerdictCache<()>, String> {
    let cache = VerdictCache::new(satverifyd::DEFAULT_CACHE_BYTES);
    for r in requests {
        let request = verify_request(&r.hit)?;
        let key = CacheKey::for_request(&request).ok_or("an inline request is cacheable")?;
        let result = satverifyd::job::execute(&request, &Harness::default()).map_err(|(_, e)| e)?;
        if let Admit::Leader(()) = cache.admit(&key, ()) {
            cache.complete(&key, Some(&result));
        }
    }
    Ok(cache)
}

/// Times the daemon's layers in-process on the exact request bytes: JSON
/// decode, cache key and lookup, job execution and its parts, and the
/// response encode.
fn daemon_probe(
    tr: &mut Trace,
    inst: &Instance,
    requests: &Requests,
    cache: &VerdictCache<()>,
) -> Result<(), String> {
    let miss_line = requests.miss("probe");
    let hit = tr.span("protocol.decode_ms", || verify_request(&requests.hit))?;
    let miss = tr.span("protocol.decode_miss_ms", || verify_request(&miss_line))?;
    tr.count("protocol.request_kb", requests.hit.len() as f64 / 1024.0);
    let key = tr
        .span("cache.key_ms", || CacheKey::for_request(&hit))
        .ok_or("an inline request is cacheable")?;
    let looked_up = tr.span("cache.lookup_ms", || cache.admit(&key, ()));
    if !matches!(looked_up, Admit::Hit { .. }) {
        return Err(format!("{}: the warmed cache missed", inst.name));
    }
    let result = tr
        .span("job.execute_ms", || {
            satverifyd::job::execute(&miss, &Harness::default())
        })
        .map_err(|(_, e)| format!("{}: {e}", inst.name))?;
    if result.outcome != "verified" {
        return Err(format!(
            "{}: in-process job gave {}",
            inst.name, result.outcome
        ));
    }
    let response = Response::Result(result);
    std::hint::black_box(tr.span("protocol.encode_ms", || response.to_line()));
    let miss_formula = miss
        .formula
        .as_deref()
        .ok_or("a miss carries its formula")?;
    let formula = tr
        .span("cnf.parse_ms", || cnf::parse_dimacs_str(miss_formula))
        .map_err(|e| format!("{}: {e}", inst.name))?;
    let proof = tr
        .span("format.parse_ms", || {
            proofver::parse_proof_str(&requests.proof)
        })
        .map_err(|e| format!("{}: {e}", inst.name))?;
    let checker = tr.span("checker.build_ms", || {
        Checker::<WatchedPropagator>::with_engine(&formula, &proof)
    });
    let v = tr
        .span("checker.run_ms", || checker.run(CheckMode::MarkedOnly))
        .map_err(|e| format!("{}: {e}", inst.name))?;
    let arena = Checker::<ArenaWatchedPropagator>::with_engine(&formula, &proof);
    tr.span("checker.run_arena_ms", || arena.run(CheckMode::MarkedOnly))
        .map_err(|e| format!("{}: arena: {e}", inst.name))?;
    tr.count("checker.checked", v.report.num_checked as f64);
    tr.count(
        "checker.tested_ratio",
        v.report.num_checked as f64 / inst.native_steps as f64,
    );
    tr.count("checker.propagations", v.report.propagations as f64);
    Ok(())
}

/// Times every layer on one instance after its verdict, outside the
/// verdict's clock: the daemon's layers first, so the inline formula
/// parse is the one `cnf.parse_ms` records on the daemon's path, then
/// the certify, backward-check and streaming layers. A layer already
/// timed inside the verdict keeps that time (see [`Trace::begin`]).
pub fn probe_all(
    tr: &mut Trace,
    inst: &Instance,
    requests: &Requests,
    cache: &VerdictCache<()>,
    lrat_path: &Path,
) -> Result<(), String> {
    daemon_probe(tr, inst, requests, cache)?;
    certify(tr, inst, lrat_path)?;
    let parsed = Parsed::load(inst)?;
    drat_extras(tr, &parsed)?;
    stream(tr, inst, &parsed.formula)
}
