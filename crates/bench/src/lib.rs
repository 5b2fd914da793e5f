//! Shared harness code for the table-reproduction binaries.
//!
//! Each binary regenerates one of the paper's tables over the registry
//! suites of `cnfgen` (the substitution table is in `DESIGN.md` §3):
//!
//! * `table1` — unsatisfiable-core extraction (Table 1);
//! * `table2` — proof verification time and size comparison (Table 2);
//! * `table3` — proof-size ratio as instances scale (Table 3);
//! * `ablation` — the prose claims and extensions, Ablations 1–8:
//!   verify1 vs verify2, learning schemes, logging cost (clauses and
//!   chains), deletion-aware checking, AIG encoding, preprocessing,
//!   BCP engines on long clauses, and text vs binary proof files.

use std::time::Duration;

use satverify::cdcl::{LearningScheme, SolverConfig};
use satverify::cnfgen::NamedInstance;
use satverify::{solve_and_verify, UnsatRun};

/// The solver configuration used for the table runs: BerkMin-like mixed
/// learning (mostly 1UIP, periodic decision clauses), per the paper's
/// §6 description of BerkMin's new feature.
#[must_use]
pub fn table_config() -> SolverConfig {
    SolverConfig::new().learning_scheme(LearningScheme::Mixed { period: 8 })
}

/// One row of measurements for an instance.
#[derive(Clone, Debug)]
pub struct Row {
    /// Instance name.
    pub name: String,
    /// Domain label (matches the paper's table groupings).
    pub domain: &'static str,
    /// Clauses of the original formula.
    pub num_original: usize,
    /// All conflict clauses deduced (`|F*|`).
    pub conflict_clauses: usize,
    /// Fraction of `F*` actually tested by `Proof_verification2`.
    pub tested_fraction: f64,
    /// Fraction of the original formula in the unsatisfiable core.
    pub core_fraction: f64,
    /// Wall-clock solving (proof generation) time.
    pub solve_time: Duration,
    /// Wall-clock verification time.
    pub verify_time: Duration,
    /// Resolution-graph size lower bound, in nodes (total resolutions).
    pub resolution_nodes: u64,
    /// Conflict-clause proof size, in literals.
    pub proof_literals: usize,
}

impl Row {
    /// The paper's Table 2 ratio: conflict-clause proof size over
    /// resolution-graph size, in percent.
    #[must_use]
    pub fn size_ratio_percent(&self) -> f64 {
        if self.resolution_nodes == 0 {
            0.0
        } else {
            self.proof_literals as f64 / self.resolution_nodes as f64 * 100.0
        }
    }
}

/// Runs the full pipeline on one instance and collects a [`Row`].
///
/// # Panics
///
/// Panics if the instance is satisfiable or fails verification — the
/// registry suites are all UNSAT by construction, so either indicates a
/// bug.
#[must_use]
pub fn measure(instance: &NamedInstance, config: SolverConfig) -> Row {
    let run: Box<UnsatRun> = solve_and_verify(&instance.formula, config)
        .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", instance.name))
        .into_unsat()
        .unwrap_or_else(|| panic!("{}: expected UNSAT", instance.name));
    Row {
        name: instance.name.clone(),
        domain: instance.domain,
        num_original: instance.formula.num_clauses(),
        conflict_clauses: run.proof.len(),
        tested_fraction: run.verification.report.tested_fraction(),
        core_fraction: run.verification.report.core_fraction(),
        solve_time: run.solve_time,
        verify_time: run.verify_time,
        resolution_nodes: run.stats.resolutions,
        proof_literals: run.proof.num_literals(),
    }
}

/// Renders rows as an aligned text table with the given column spec.
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| (*h).to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use satverify::cnfgen;

    #[test]
    fn measure_produces_consistent_row() {
        let inst = cnfgen::NamedInstance {
            name: "php4".into(),
            domain: "combinatorial",
            formula: cnfgen::pigeonhole(4),
        };
        let row = measure(&inst, table_config());
        assert_eq!(row.num_original, inst.formula.num_clauses());
        assert!(row.conflict_clauses > 0);
        assert!(row.tested_fraction > 0.0 && row.tested_fraction <= 1.0);
        assert!((row.core_fraction - 1.0).abs() < 1e-9, "php core is everything");
        assert!(row.resolution_nodes > 0);
        assert!(row.proof_literals > 0);
        assert!(row.size_ratio_percent() > 0.0);
    }

    #[test]
    fn table_renders_aligned() {
        let text = render_table(
            &["name", "n"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].ends_with("22"));
    }
}
