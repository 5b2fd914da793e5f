//! Ablation studies backing the paper's §3–§6 prose claims:
//!
//! 1. `Proof_verification2` (marked-only) vs `Proof_verification1`
//!    (check everything) — §4 claims verify2 is strictly more efficient;
//! 2. learning schemes — §5 claims 1UIP ("local") clauses give small
//!    resolution graphs while decision ("global") clauses give small
//!    conflict-clause proofs;
//! 3. proof-logging overhead — §1 claims "outputting all the conflict
//!    clauses took about 10% of the total runtime"; clause logging and
//!    full resolution-chain logging against no logging;
//! 4. plain vs deletion-aware checking (§2 note / DRUP);
//! 5. netlist Tseitin vs AIG-strashed encoding;
//! 6. preprocessing (subsumption + variable elimination);
//! 7. BCP engines on long clauses — §6 adopts watched literals because
//!    conflict-clause proofs contain many long clauses;
//! 8. proof serialisation, text vs binary (extension).
//!
//! Every verification is checked, so a wrong verdict panics. Run with
//! `cargo run -p bench --release --bin ablation`.

use std::hint::black_box;
use std::time::Instant;

use bench::render_table;
use satverify::bcp::{
    ArenaWatchedPropagator, Attach, ClauseArena, ClauseDb, CountingPropagator, HeadTailPropagator,
    Propagator, WatchedPropagator,
};
use satverify::cdcl::{LearningScheme, Solver, SolverConfig};
use satverify::cnf::{CnfFormula, Lit, Var};
use satverify::cnfgen::{bmc_counter, pigeonhole, random_ksat, tseitin_grid, NamedInstance};
use satverify::proofver::{
    decode_proof, encode_proof_to_vec, parse_proof_str, to_proof_string, verify, verify_all,
};
use satverify::{proof_from_trace, solve_and_verify};

/// Times `run(i)` for each of `n` configurations, `rounds` times in
/// rotation, so that a slow stretch of the host slows every
/// configuration alike. Returns each configuration's samples in seconds.
fn rotate(rounds: usize, n: usize, mut run: impl FnMut(usize)) -> Vec<Vec<f64>> {
    let mut samples = vec![Vec::with_capacity(rounds); n];
    for _ in 0..rounds {
        for (i, times) in samples.iter_mut().enumerate() {
            let start = Instant::now();
            run(i);
            times.push(start.elapsed().as_secs_f64());
        }
    }
    samples
}

/// The lower quartile, median and upper quartile of `samples`.
fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    [sorted[n / 4], sorted[n / 2], sorted[3 * n / 4]]
}

fn ablation_instances() -> Vec<NamedInstance> {
    vec![
        NamedInstance {
            name: "php7".into(),
            domain: "combinatorial",
            formula: pigeonhole(7),
        },
        NamedInstance {
            name: "tseitin4x4".into(),
            domain: "combinatorial",
            formula: tseitin_grid(4, 4),
        },
        NamedInstance {
            name: "bmc_cnt8_80".into(),
            domain: "bounded model checking",
            formula: bmc_counter(8, 80),
        },
    ]
}

fn verify1_vs_verify2() {
    println!("Ablation 1. Proof_verification1 vs Proof_verification2 (§4)\n");
    let mut rows = Vec::new();
    for instance in ablation_instances() {
        let run = solve_and_verify(&instance.formula, SolverConfig::default())
            .expect("pipeline")
            .into_unsat()
            .expect("UNSAT");
        let proof = run.proof;
        let t1 = Instant::now();
        let v1 = verify_all(&instance.formula, &proof).expect("verify1");
        let t1 = t1.elapsed();
        let t2 = Instant::now();
        let v2 = verify(&instance.formula, &proof).expect("verify2");
        let t2 = t2.elapsed();
        rows.push(vec![
            instance.name.clone(),
            format!("{}", proof.len()),
            format!("{} ({:.3}s)", v1.report.num_checked, t1.as_secs_f64()),
            format!("{} ({:.3}s)", v2.report.num_checked, t2.as_secs_f64()),
            format!("{:.2}x", t1.as_secs_f64() / t2.as_secs_f64().max(1e-9)),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["Name", "|F*|", "verify1 checks", "verify2 checks", "speedup"],
            &rows
        )
    );
}

fn learning_schemes() {
    println!("Ablation 2. Learning schemes: local vs global clauses (§5)\n");
    let mut rows = Vec::new();
    for instance in ablation_instances() {
        for (label, scheme) in [
            ("1uip", LearningScheme::FirstUip),
            ("mixed/8", LearningScheme::Mixed { period: 8 }),
            ("decision", LearningScheme::Decision),
        ] {
            let mut solver = Solver::new(
                &instance.formula,
                SolverConfig::new().learning_scheme(scheme),
            );
            let result = solver.solve();
            let trace = result.into_proof().expect("UNSAT with logging");
            let stats = *solver.stats();
            let lits = trace.num_literals();
            let nodes = trace.num_resolutions().max(1);
            rows.push(vec![
                format!("{} / {}", instance.name, label),
                format!("{}", stats.conflicts),
                format!("{:.1}", nodes as f64 / 1000.0),
                format!("{:.1}", lits as f64 / 1000.0),
                format!("{:.0}%", lits as f64 / nodes as f64 * 100.0),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "Instance / scheme",
                "conflicts",
                "res. nodes (k)",
                "proof lits (k)",
                "lits/nodes",
            ],
            &rows
        )
    );
    println!(
        "expected shape: decision scheme has the smallest lits/nodes ratio\n\
         (global clauses: few literals, many resolutions — §5)\n"
    );
}

fn logging_overhead() {
    println!("Ablation 3. Proof-logging overhead (§1: ~10% of runtime)\n");
    const ROUNDS: usize = 9;
    let configs = [
        SolverConfig::new().log_proof(false),
        SolverConfig::new(),
        SolverConfig::new().log_resolution_chains(true),
    ];
    let mut rows = Vec::new();
    for instance in ablation_instances() {
        let times = rotate(ROUNDS, configs.len(), |i| {
            let result = satverify::cdcl::solve(&instance.formula, configs[i].clone());
            assert!(result.is_unsat());
        });
        let [q1, off, q3] = quartiles(&times[0]);
        let clauses = quartiles(&times[1])[1];
        let chains = quartiles(&times[2])[1];
        rows.push(vec![
            instance.name.clone(),
            format!("{off:.3}s"),
            format!("{clauses:.3}s"),
            format!("{chains:.3}s"),
            format!("{:+.1}%", (clauses / off - 1.0) * 100.0),
            format!("{:+.1}%", (chains / off - 1.0) * 100.0),
            format!("{:.1}%", (q3 - q1) / off * 100.0),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "Name",
                "no logging",
                "clauses",
                "chains",
                "clause overhead",
                "chain overhead",
                "no-log IQR",
            ],
            &rows
        )
    );
    println!(
        "medians of {ROUNDS} rounds, the three configurations in rotation;\n\
         no-log IQR is the no-logging runs' interquartile range over their\n\
         median, and an overhead inside it is noise\n"
    );
}

fn deletion_aware_checking() {
    println!("Ablation 4. Plain vs deletion-aware checking (§2 note / DRUP)\n");
    let mut rows = Vec::new();
    for instance in ablation_instances() {
        // aggressive reduction so deletions actually happen
        let config = SolverConfig {
            reduce_base: 100,
            reduce_growth: 50,
            ..SolverConfig::default()
        };
        let run = solve_and_verify(&instance.formula, config)
            .expect("pipeline")
            .into_unsat()
            .expect("UNSAT");
        let t_plain = Instant::now();
        verify(&instance.formula, &run.proof).expect("plain");
        let t_plain = t_plain.elapsed();
        let annotated = satverify::annotated_from_trace(&run.trace);
        let t_del = Instant::now();
        annotated.verify(&instance.formula).expect("deletion-aware");
        let t_del = t_del.elapsed();
        rows.push(vec![
            instance.name.clone(),
            format!("{}", run.proof.len()),
            format!("{}", annotated.num_deletes()),
            format!("{:.3}s", t_plain.as_secs_f64()),
            format!("{:.3}s", t_del.as_secs_f64()),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["Name", "|F*|", "deletions", "plain check", "deletion-aware"],
            &rows
        )
    );
    println!(
        "deletion-aware checks propagate over the solver's live clause set\n\
         instead of all of F* — the idea the DRUP format later standardised\n"
    );
}

fn aig_frontend() {
    println!("Ablation 5. Netlist Tseitin vs AIG-strashed encoding\n");
    use satverify::circuit::{
        build_miter, carry_select_adder, encode, encode_via_aig, ripple_carry_adder,
    };
    let mut rows = Vec::new();
    for width in [8usize, 16, 24] {
        let (netlist, diff) = build_miter(
            2 * width,
            move |n, io| {
                let (s, c) = ripple_carry_adder(n, &io[..width], &io[width..]);
                let mut out = s;
                out.push(c);
                out
            },
            move |n, io| {
                let (s, c) = carry_select_adder(n, &io[..width], &io[width..], 3);
                let mut out = s;
                out.push(c);
                out
            },
        );
        let mut plain = encode(&netlist);
        plain.assert_node(diff, true);
        let plain = plain.into_formula();
        let via_aig = encode_via_aig(&netlist, diff, true);
        let measure = |f: &satverify::cnf::CnfFormula| -> (f64, f64) {
            let run = solve_and_verify(f, SolverConfig::default())
                .expect("pipeline")
                .into_unsat()
                .expect("UNSAT");
            (run.solve_time.as_secs_f64(), run.verify_time.as_secs_f64())
        };
        let (ps, pv) = measure(&plain);
        let (as_, av) = measure(&via_aig);
        rows.push(vec![
            format!("eqv_add{width} / tseitin"),
            format!("{}", plain.num_clauses()),
            format!("{ps:.3}s"),
            format!("{pv:.3}s"),
        ]);
        rows.push(vec![
            format!("eqv_add{width} / aig"),
            format!("{}", via_aig.num_clauses()),
            format!("{as_:.3}s"),
            format!("{av:.3}s"),
        ]);
    }
    println!(
        "{}",
        render_table(&["Frontend", "clauses", "solve", "verify"], &rows)
    );
    println!(
        "structural hashing before encoding shrinks the CNF the solver and\n\
         the proof checker must process\n"
    );
}

fn preprocessing_effect() {
    println!("Ablation 6. Preprocessing (subsumption + variable elimination)\n");
    use satverify::{preprocess, SimplifyConfig};
    let mut rows = Vec::new();
    for instance in ablation_instances() {
        let pre = preprocess(&instance.formula, SimplifyConfig::default());
        let t_plain = Instant::now();
        let plain = solve_and_verify(&instance.formula, SolverConfig::default())
            .expect("pipeline")
            .into_unsat()
            .expect("UNSAT");
        let t_plain = t_plain.elapsed();
        let t_pre = Instant::now();
        let prep = satverify::solve_and_verify_preprocessed(
            &instance.formula,
            SimplifyConfig::default(),
            SolverConfig::default(),
        )
        .expect("pipeline")
        .into_unsat()
        .expect("UNSAT");
        let t_pre = t_pre.elapsed();
        rows.push(vec![
            instance.name.clone(),
            format!(
                "{} -> {}",
                instance.formula.num_clauses(),
                pre.formula.num_clauses()
            ),
            format!("{} / {}", pre.num_eliminated(), pre.num_blocked()),
            format!("{:.3}s / {}", t_plain.as_secs_f64(), plain.proof.len()),
            format!("{:.3}s / {}", t_pre.as_secs_f64(), prep.proof.len()),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["Name", "clauses", "elim/blocked", "plain (t / |F*|)", "preproc (t / |F*|)"],
            &rows
        )
    );
    println!(
        "the stitched proof (resolvent prefix + solver clauses) verifies\n\
         against the original formula in both columns\n"
    );
}

/// The §6 workload: a seeded random 3-SAT skeleton plus 20-literal
/// clauses over spread-out variables, mimicking the long clauses of a
/// conflict-clause proof.
fn bcp_workload(num_vars: usize) -> CnfFormula {
    let mut f = random_ksat(3, num_vars, num_vars * 3, 99);
    for start in 0..(num_vars / 20) {
        let lits: Vec<i32> = (0..20)
            .map(|j| {
                let v = (start * 17 + j * 13) % num_vars + 1;
                if j % 2 == 0 {
                    v as i32
                } else {
                    -(v as i32)
                }
            })
            .collect();
        f.add_dimacs_clause(&lits);
    }
    f
}

/// A fixed decision schedule touching a quarter of the variables.
fn bcp_decisions(num_vars: usize) -> Vec<Lit> {
    (0..num_vars / 4)
        .map(|i| {
            let v = Var::new(((i * 7) % num_vars) as u32);
            v.lit(i % 3 == 0)
        })
        .collect()
}

/// Decides each unassigned literal of the schedule in turn, propagates,
/// and undoes the decision on a conflict. The engines share no trait
/// that covers both stores, so this is a macro.
macro_rules! replay {
    ($p:expr, $db:expr, $schedule:expr) => {
        for &d in $schedule {
            if $p.assignment().is_unassigned(d) {
                $p.decide(d);
                if $p.propagate($db).is_some() {
                    $p.backtrack_to($p.decision_level() - 1);
                }
            }
        }
    };
}

fn visits_watched(f: &CnfFormula, schedule: &[Lit]) -> u64 {
    let mut db = ClauseDb::from_formula(f);
    let mut p = WatchedPropagator::new(f.num_vars());
    let refs: Vec<_> = db.refs().collect();
    for r in refs {
        if let Attach::Unit(l) = p.attach_clause(&mut db, r) {
            let _ = p.enqueue_propagated(l, r);
        }
    }
    replay!(p, &mut db, schedule);
    p.num_clause_visits()
}

fn visits_arena(f: &CnfFormula, schedule: &[Lit]) -> u64 {
    let mut db = ClauseArena::from_formula(f);
    let mut p = ArenaWatchedPropagator::new(f.num_vars());
    let bulk = p.attach_all(&mut db);
    for (r, l) in bulk.units {
        let _ = p.enqueue_propagated(l, r);
    }
    replay!(p, &mut db, schedule);
    p.num_clause_visits()
}

fn visits_head_tail(f: &CnfFormula, schedule: &[Lit]) -> u64 {
    let db = ClauseDb::from_formula(f);
    let mut p = HeadTailPropagator::new(f.num_vars());
    p.attach_all(&db);
    for r in db.refs() {
        if db.clause_len(r) == 1 {
            let _ = p.enqueue_unit(db.lits(r)[0], r);
        }
    }
    replay!(p, &db, schedule);
    p.num_clause_visits()
}

fn visits_counting(f: &CnfFormula, schedule: &[Lit]) -> u64 {
    let db = ClauseDb::from_formula(f);
    let mut p = CountingPropagator::new(f.num_vars());
    p.attach_all(&db);
    for r in db.refs() {
        if db.clause_len(r) == 1 {
            let _ = p.enqueue_unit(db.lits(r)[0], r);
        }
    }
    replay!(p, &db, schedule);
    p.num_clause_visits()
}

/// Runs one engine: build its store, attach, replay the schedule, and
/// return the clause visits.
type Drive = fn(&CnfFormula, &[Lit]) -> u64;

const BCP_ENGINES: [(&str, Drive); 4] = [
    ("watched", visits_watched),
    ("arena", visits_arena),
    ("head-tail", visits_head_tail),
    ("counting", visits_counting),
];

fn bcp_engines() {
    println!("Ablation 7. BCP engines on long clauses (§6 note: watched literals)\n");
    const ROUNDS: usize = 21;
    let mut rows = Vec::new();
    for num_vars in [500usize, 2000] {
        let f = bcp_workload(num_vars);
        let schedule = bcp_decisions(num_vars);
        let times = rotate(ROUNDS, BCP_ENGINES.len(), |i| {
            black_box((BCP_ENGINES[i].1)(&f, &schedule));
        });
        for ((name, drive), samples) in BCP_ENGINES.iter().zip(&times) {
            rows.push(vec![
                format!("{num_vars} vars / {name}"),
                format!("{}", drive(&f, &schedule)),
                format!("{:.2}", quartiles(samples)[1] * 1e3),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &["Workload / engine", "clause visits", "median (ms)"],
            &rows
        )
    );
    println!(
        "medians of {ROUNDS} rounds, the engines in rotation. expected shape:\n\
         watched and arena visit the same clauses; head-tail and counting\n\
         visit more (§6)\n"
    );
}

fn proof_serialisation() {
    println!("Ablation 8. Proof serialisation: text vs binary (extension)\n");
    const ROUNDS: usize = 21;
    let trace = satverify::cdcl::solve(&pigeonhole(7), SolverConfig::default())
        .into_proof()
        .expect("UNSAT");
    let proof = proof_from_trace(&trace);
    let text = to_proof_string(&proof);
    let bytes = encode_proof_to_vec(&proof);
    assert_eq!(parse_proof_str(&text).expect("parses"), proof);
    assert_eq!(decode_proof(bytes.as_slice()).expect("decodes"), proof);
    let times = rotate(ROUNDS, 4, |i| match i {
        0 => {
            black_box(to_proof_string(&proof));
        }
        1 => {
            black_box(encode_proof_to_vec(&proof));
        }
        2 => {
            black_box(parse_proof_str(&text).expect("parses"));
        }
        _ => {
            black_box(decode_proof(bytes.as_slice()).expect("decodes"));
        }
    });
    let ms = |i: usize| format!("{:.2}", quartiles(&times[i])[1] * 1e3);
    let rows = vec![
        vec!["text".into(), format!("{}", text.len()), ms(0), ms(2)],
        vec!["binary".into(), format!("{}", bytes.len()), ms(1), ms(3)],
    ];
    println!("php7 solver proof, {} clauses\n", proof.len());
    println!(
        "{}",
        render_table(&["Format", "bytes", "write (ms)", "parse (ms)"], &rows)
    );
    println!("medians of {ROUNDS} rounds, the four operations in rotation\n");
}

fn proof_roundtrip_sanity() {
    // tiny extra guard: trace → proof conversion is lossless
    let f = pigeonhole(4);
    let run = solve_and_verify(&f, SolverConfig::default())
        .expect("ok")
        .into_unsat()
        .expect("UNSAT");
    assert_eq!(proof_from_trace(&run.trace), run.proof);
}

fn main() {
    proof_roundtrip_sanity();
    verify1_vs_verify2();
    learning_schemes();
    logging_overhead();
    deletion_aware_checking();
    aig_frontend();
    preprocessing_effect();
    bcp_engines();
    proof_serialisation();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The §6 shape, as an ordering rather than exact counts: the arena
    /// layout visits what the watched scheme visits, and both schemes
    /// that do not watch visit more.
    #[test]
    fn watched_literals_visit_fewest_clauses() {
        for num_vars in [500usize, 2000] {
            let f = bcp_workload(num_vars);
            let schedule = bcp_decisions(num_vars);
            let [watched, arena, head_tail, counting] =
                BCP_ENGINES.map(|(_, drive)| drive(&f, &schedule));
            assert_eq!(arena, watched, "{num_vars} vars");
            assert!(
                head_tail > watched,
                "{num_vars} vars: {head_tail} vs {watched}"
            );
            assert!(
                counting > watched,
                "{num_vars} vars: {counting} vs {watched}"
            );
        }
    }
}
