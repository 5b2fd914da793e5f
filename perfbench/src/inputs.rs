//! Workload definitions and their inputs.
//!
//! Set-up turns a seed into files: for every instance of the workload's
//! pool it writes the DIMACS formula, the proof as binary DRAT with the
//! solver's deletions, and the proof in the native text format, all under
//! one seeded variable renaming. The renaming permutes variables only
//! within ranges that share both their decimal width and their binary
//! varint width, so every file keeps its exact size and every check its
//! exact work (the same core, checked count and propagations) whatever
//! the seed; what the seed changes are the bytes, the order of the
//! instances and, for the daemon, the hit/miss interleaving.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use satverify::cdcl::{solve, SolverConfig};
use satverify::cnf::{self, Clause, CnfFormula, Lit};
use satverify::obs::json::{self, Json};
use satverify::proofver::{
    self, ConflictClauseProof, DratProof, DratStep, ProofClauseRef, ProofEvent,
};

use crate::util::Rng;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    DratCertify,
    DaemonMiss,
    DaemonHit,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload::DratCertify,
    Workload::DaemonMiss,
    Workload::DaemonHit,
];

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::DratCertify => "drat-certify",
            Workload::DaemonMiss => "daemon-miss",
            Workload::DaemonHit => "daemon-hit",
        }
    }

    /// The instance pool as `(name, weight)`, the faster instance first.
    /// Weights 8:2 put the p90 rank at the median of the second
    /// instance's cluster of samples and the p50 rank at the 62.5th
    /// percentile of the first's, never on the gap between them nor out
    /// in a cluster's tail. (At 7:3 the p50 rank sat at the first
    /// cluster's 71st percentile, where its tail begins.)
    pub fn pool(self) -> [(&'static str, usize); 2] {
        match self {
            Workload::DratCertify => [("pebbling24", 8), ("bmc_cnt8_120", 2)],
            Workload::DaemonMiss | Workload::DaemonHit => [("tseitin4x4", 8), ("eqv_shift32", 2)],
        }
    }
}

/// One instance's files and sizes, as recorded in the manifest.
#[derive(Clone, Debug)]
pub struct Instance {
    pub name: String,
    pub weight: usize,
    pub cnf: PathBuf,
    pub drat: PathBuf,
    pub proof: PathBuf,
    pub num_clauses: usize,
    pub drat_adds: usize,
    pub drat_deletes: usize,
    pub native_steps: usize,
    pub sizes: [u64; 3],
}

fn generate(name: &str) -> Result<(CnfFormula, DratProof, ConflictClauseProof), String> {
    let instance = satverify::cnfgen::table_suite()
        .into_iter()
        .find(|i| i.name == name)
        .ok_or_else(|| format!("{name} is not in cnfgen::table_suite()"))?;
    let formula = instance.formula;
    let trace = solve(&formula, SolverConfig::default())
        .into_proof()
        .ok_or_else(|| format!("{name}: the solver did not refute it"))?;
    let native = satverify::proof_from_trace(&trace);
    // binary DRAT keeping the solver's deletions, so the backward walk
    // resurrects deleted clauses as it does on real solver output
    let mut added: Vec<&Clause> = Vec::new();
    let mut steps = Vec::new();
    let annotated = satverify::annotated_from_trace(&trace);
    for event in annotated.events() {
        steps.push(match event {
            ProofEvent::Add(c) => {
                added.push(c);
                DratStep::add(c.clone())
            }
            ProofEvent::Delete(ProofClauseRef::Original(k)) => {
                DratStep::delete(formula.clauses()[*k].clone())
            }
            ProofEvent::Delete(ProofClauseRef::Learned(j)) => DratStep::delete(added[*j].clone()),
        });
    }
    Ok((formula, DratProof::new(steps), native))
}

/// A seeded permutation of `1..=n`, applied within the ranges bounded by
/// 10, 64, 100, 1000, 8192, 10000, ...: variables keep their decimal and
/// varint widths, so files keep their exact sizes.
fn renaming(num_vars: usize, seed: u64) -> Vec<u32> {
    let mut bounds: Vec<usize> = vec![1, 64, 8192, 1 << 20];
    let mut p = 10;
    while p <= num_vars {
        bounds.push(p);
        p *= 10;
    }
    bounds.push(num_vars + 1);
    bounds.sort_unstable();
    bounds.dedup();
    let mut rng = Rng::new(seed);
    let mut map: Vec<u32> = (0..=num_vars as u32).collect();
    for range in bounds.windows(2) {
        let (lo, hi) = (range[0], range[1].min(num_vars + 1));
        if lo < hi {
            rng.shuffle(&mut map[lo..hi]);
        }
    }
    map
}

fn rename(clause: &Clause, map: &[u32]) -> Clause {
    let lits: Vec<Lit> = clause
        .lits()
        .iter()
        .map(|l| {
            let d = l.to_dimacs();
            let v = map[d.unsigned_abs() as usize] as i32;
            Lit::from_dimacs(if d < 0 { -v } else { v })
        })
        .collect();
    Clause::new(lits)
}

fn write_file(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> Result<u64, String> {
    let file = File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut out = BufWriter::new(file);
    write(&mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let meta = std::fs::metadata(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(meta.len())
}

/// Generates, solves, renames, encodes and writes the workload's inputs
/// into `dir`, with a `manifest.json` describing them.
pub fn setup(workload: Workload, seed: u64, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut entries = Vec::new();
    for (index, (name, weight)) in workload.pool().into_iter().enumerate() {
        let (formula, drat, native) = generate(name)?;
        let num_vars = formula
            .num_vars()
            .max(drat.max_var().map_or(0, |v| v.idx() + 1));
        let map = renaming(num_vars, seed.wrapping_add(index as u64));
        let mut renamed = CnfFormula::with_vars(formula.num_vars());
        for c in formula.iter() {
            renamed.add_clause(rename(c, &map));
        }
        let drat = DratProof::new(
            drat.steps()
                .iter()
                .map(|s| DratStep {
                    clause: rename(&s.clause, &map),
                    ..s.clone()
                })
                .collect(),
        );
        let native = ConflictClauseProof::new(native.iter().map(|c| rename(c, &map)).collect());
        let cnf_path = dir.join(format!("{name}.cnf"));
        let drat_path = dir.join(format!("{name}.drat"));
        let proof_path = dir.join(format!("{name}.proof"));
        let cnf_bytes = write_file(&cnf_path, |w| cnf::write_dimacs(w, &renamed))?;
        let drat_bytes = write_file(&drat_path, |w| proofver::encode_drat(w, &drat))?;
        let proof_bytes = write_file(&proof_path, |w| proofver::write_proof(w, &native))?;
        let mut e = Json::object();
        e.push("name", name);
        e.push("weight", weight);
        e.push("num_clauses", renamed.num_clauses());
        e.push("drat_adds", drat.num_adds());
        e.push("drat_deletes", drat.num_deletes());
        e.push("native_steps", native.len());
        e.push("cnf_bytes", cnf_bytes);
        e.push("drat_bytes", drat_bytes);
        e.push("proof_bytes", proof_bytes);
        entries.push(e);
    }
    let mut manifest = Json::object();
    manifest.push("workload", workload.name());
    manifest.push("seed", seed);
    manifest.push("instances", Json::Array(entries));
    let text = manifest.to_pretty_string();
    write_file(&dir.join("manifest.json"), |w| w.write_all(text.as_bytes()))?;
    Ok(())
}

/// Reads the manifest `setup` wrote for `workload` and `seed`.
pub fn load(workload: Workload, seed: u64, dir: &Path) -> Result<Vec<Instance>, String> {
    let path = dir.join("manifest.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let same = doc.get("workload").and_then(Json::as_str) == Some(workload.name())
        && doc.get("seed").and_then(Json::as_int) == i64::try_from(seed).ok();
    if !same {
        return Err(format!(
            "{} was set up for another workload or seed",
            path.display()
        ));
    }
    let entries = doc
        .get("instances")
        .and_then(Json::as_array)
        .ok_or("manifest has no instances")?;
    entries
        .iter()
        .map(|e| {
            let name = e
                .get("name")
                .and_then(Json::as_str)
                .ok_or("instance without a name")?;
            let int = |key: &str| {
                e.get(key)
                    .and_then(Json::as_int)
                    .and_then(|n| u64::try_from(n).ok())
                    .ok_or_else(|| format!("{name}: manifest lacks {key}"))
            };
            Ok(Instance {
                name: name.to_string(),
                weight: int("weight")? as usize,
                cnf: dir.join(format!("{name}.cnf")),
                drat: dir.join(format!("{name}.drat")),
                proof: dir.join(format!("{name}.proof")),
                num_clauses: int("num_clauses")? as usize,
                drat_adds: int("drat_adds")? as usize,
                drat_deletes: int("drat_deletes")? as usize,
                native_steps: int("native_steps")? as usize,
                sizes: [int("cnf_bytes")?, int("drat_bytes")?, int("proof_bytes")?],
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renaming_keeps_decimal_and_varint_widths() {
        let map = renaming(12_000, 3);
        let width = |v: u32| (v.to_string().len(), v < 64, v < 8192);
        for v in 1..=12_000u32 {
            assert_eq!(width(v), width(map[v as usize]), "variable {v}");
        }
        let mut seen = map.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..=12_000).collect::<Vec<u32>>(), "a permutation");
        assert_ne!(map, renaming(12_000, 4), "the seed matters");
    }
}
