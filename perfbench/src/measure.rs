//! The measured phase: a closed loop of verdicts, the correctness gate,
//! and the report `run.py` turns into the result line.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use satverify::obs::json::Json;

use crate::inputs::{Instance, Workload};
use crate::layers::{self, Requests, Verdict};
use crate::util::{self, ms_since, CpuSet, Rng, Schedule, Trace};

/// The per-layer metrics every traced run prints, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cnf.parse_ms", "ms"),
    ("drat.parse_ms", "ms"),
    ("drat.build_ms", "ms"),
    ("drat.check_ms", "ms"),
    ("drat.walk_ms", "ms"),
    ("drat.check_arena_ms", "ms"),
    ("lrat.write_ms", "ms"),
    ("lrat.parse_ms", "ms"),
    ("lrat.check_ms", "ms"),
    ("drat.adds", "count"),
    ("drat.deletes", "count"),
    ("drat.checked", "count"),
    ("drat.tested_ratio", "ratio"),
    ("drat.core_ratio", "ratio"),
    ("drat.propagations", "count"),
    ("drat.clause_visits", "count"),
    ("lrat.add_lines", "count"),
    ("lrat.bytes", "bytes"),
    ("stream.one_window_ms", "ms"),
    ("stream.index_ms", "ms"),
    ("stream.walk_ms", "ms"),
    ("stream.verify_arena_ms", "ms"),
    ("stream.windows", "count"),
    ("stream.window_shrinks", "count"),
    ("stream.arena_rebuilds", "count"),
    ("stream.residency_kb", "KiB"),
    ("stream.proof_mb", "MiB"),
    ("stream.propagations", "count"),
    ("stream.clause_visits", "count"),
    ("protocol.decode_ms", "ms"),
    ("protocol.decode_miss_ms", "ms"),
    ("protocol.request_kb", "KiB"),
    ("cache.key_ms", "ms"),
    ("cache.lookup_ms", "ms"),
    ("protocol.encode_ms", "ms"),
    ("format.parse_ms", "ms"),
    ("checker.build_ms", "ms"),
    ("checker.run_ms", "ms"),
    ("checker.run_arena_ms", "ms"),
    ("job.execute_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("checker.checked", "count"),
    ("checker.tested_ratio", "ratio"),
    ("checker.propagations", "count"),
    ("unattributed_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("calib_ms", "ms"),
];

/// The layers each workload's verdict (or, for `daemon-hit`, each hit)
/// is made of; `unattributed_ms` is the traced verdict median minus
/// theirs.
fn path_layers(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::DratCertify => &[
            "cnf.parse_ms",
            "drat.parse_ms",
            "drat.check_ms",
            "lrat.write_ms",
            "lrat.parse_ms",
            "lrat.check_ms",
        ],
        Workload::DaemonMiss => &[
            "protocol.decode_miss_ms",
            "cache.key_ms",
            "cache.lookup_ms",
            "job.execute_ms",
            "protocol.encode_ms",
        ],
        Workload::DaemonHit => &[
            "protocol.decode_ms",
            "cache.key_ms",
            "cache.lookup_ms",
            "protocol.encode_ms",
        ],
    }
}

pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub dir: PathBuf,
    pub seconds: f64,
    pub trace: bool,
    pub satverify: PathBuf,
}

/// One verdict's sample: which instance, how long, how many additions,
/// and in which segment of the run.
pub struct Sample {
    pub inst: usize,
    pub ms: f64,
    pub adds: u64,
    pub seg: usize,
}

/// The stretches a run's verdicts fall into: eight consecutive slices of
/// the closed loop's time, or one daemon each.
pub const SEGMENTS: usize = 8;

/// The end-to-end metrics come from the verdicts of the fastest quarter of
/// the segments: the two with the lowest median on the instance in whose
/// cluster the metric's rank falls (the first for p50 and adds/s, the
/// second for p90). Other tenants of a shared host only ever slow a
/// stretch of the run down, by up to 1.5x and for seconds at a time, so
/// the fastest stretches are the steadiest measure of the program; a
/// median over the whole run followed the share of slow stretches in it.
const FASTEST: usize = 2;

/// Each segment's median on instance `inst`, if it verified any.
pub fn segment_p50s(samples: &[Sample], inst: usize) -> Vec<Option<f64>> {
    (0..SEGMENTS)
        .map(|seg| {
            let ms: Vec<f64> = samples
                .iter()
                .filter(|s| s.seg == seg && s.inst == inst)
                .map(|s| s.ms)
                .collect();
            (!ms.is_empty()).then(|| util::median(&ms))
        })
        .collect()
}

/// The `FASTEST` segments on instance `inst`, fastest first.
pub fn fastest_segments(samples: &[Sample], inst: usize) -> Vec<usize> {
    let p50s = segment_p50s(samples, inst);
    let mut timed: Vec<(f64, usize)> = p50s
        .iter()
        .enumerate()
        .filter_map(|(seg, p50)| p50.map(|ms| (ms, seg)))
        .collect();
    timed.sort_by(|a, b| a.0.total_cmp(&b.0));
    timed
        .into_iter()
        .take(FASTEST)
        .map(|(_, seg)| seg)
        .collect()
}

/// The correctness gate: every repeat of an input must reach `verified`
/// with the core size and checked count of its first verdict.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub errors: Vec<String>,
    pub first: BTreeMap<String, (usize, usize)>,
}

impl Gate {
    pub fn record(&mut self, name: &str, result: Result<Verdict, String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(v) => {
                let first = *self
                    .first
                    .entry(name.to_string())
                    .or_insert((v.core, v.checked));
                if first == (v.core, v.checked) {
                    return true;
                }
                self.errors.push(format!(
                    "{name}: core {} and checked {} differ from the first verdict's {} and {}",
                    v.core, v.checked, first.0, first.1
                ));
            }
            Err(e) => self.errors.push(format!("{name}: {e}")),
        }
        false
    }

    pub fn fail(&mut self, error: String) {
        self.errors.push(error);
    }
}

/// Everything a measured run reports back to `run.py`.
pub struct Report {
    pub gate: Gate,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub ready_s: f64,
    pub info: Json,
}

impl Report {
    pub fn to_json(&self) -> Json {
        let mut metrics = Json::object();
        for &(name, value, unit) in &self.metrics {
            let mut m = Json::object();
            m.push("value", value);
            m.push("unit", unit);
            metrics.push(name, m);
        }
        let mut observed = Json::object();
        for (name, &(core, checked)) in &self.gate.first {
            observed.push(
                name.as_str(),
                Json::array([Json::from(core), Json::from(checked)]),
            );
        }
        let mut doc = Json::object();
        doc.push("attempted", self.gate.attempted);
        doc.push("failed", self.gate.errors.len());
        doc.push(
            "errors",
            Json::array(self.gate.errors.iter().map(|e| Json::from(e.as_str()))),
        );
        doc.push("observed", observed);
        doc.push("ready_s", self.ready_s);
        doc.push("info", self.info.clone());
        doc.push("metrics", metrics);
        doc
    }
}

/// The end-to-end metrics of one series of verdicts, each over the
/// segments fastest on the instance its rank falls on (over the whole
/// series if no segment verified that instance).
pub fn series_metrics(
    samples: &[Sample],
    peak_rss_kb: u64,
) -> Vec<(&'static str, f64, &'static str)> {
    let fastest_on = |inst: usize| -> Vec<&Sample> {
        let fastest = fastest_segments(samples, inst);
        samples
            .iter()
            .filter(|s| fastest.is_empty() || fastest.contains(&s.seg))
            .collect()
    };
    let (first, second) = (fastest_on(0), fastest_on(1));
    let times = |kept: &[&Sample]| util::sorted(&kept.iter().map(|s| s.ms).collect::<Vec<_>>());
    // the median verdict's rate: a sum over all verdicts follows the
    // largest instance, whose time moves most with other load on the
    // machine, and so spread across runs 2-3 times as much as the median
    let rates: Vec<f64> = first.iter().map(|s| s.adds as f64 / (s.ms / 1e3)).collect();
    vec![
        ("verdict_p50_ms", util::quantile(&times(&first), 0.5), "ms"),
        ("verdict_p90_ms", util::quantile(&times(&second), 0.9), "ms"),
        ("adds_per_s", util::median(&rates), "adds/s"),
        ("peak_rss_mb", peak_rss_kb as f64 / 1024.0, "MiB"),
    ]
}

/// Per-layer medians, derived splits, `unattributed_ms` and the trace's
/// own cost, in `PER_LAYER` order.
pub fn layer_metrics(
    workload: Workload,
    tr: &Trace,
    untraced_p50: f64,
    traced_p50: f64,
    calib: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let attributed: f64 = path_layers(workload).iter().map(|l| tr.median(l)).sum();
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "drat.walk_ms" => tr.median("drat.check_ms") - tr.median("drat.build_ms"),
                "stream.walk_ms" => tr.median("stream.verify_ms") - tr.median("stream.index_ms"),
                // the layers were timed in the traced loop, so they are
                // compared with its verdicts, not the untraced ones
                "unattributed_ms" => traced_p50 - attributed,
                "trace.overhead_share" => traced_p50 / untraced_p50 - 1.0,
                "calib_ms" => calib,
                _ => tr.median(name),
            };
            (name, value, unit)
        })
        .collect()
}

/// Runs `job` in a closed loop until `seconds` have passed; each sample's
/// segment is the slice of that time in which its verdict began.
///
/// The segments take turns on the CPUs the process may use. A lone busy
/// thread otherwise stays on one vCPU, and on a shared host one vCPU can
/// run 1.5x slower than the other for a whole run; taking turns lets the
/// fastest segments come from whichever is fast.
fn closed_loop(
    seconds: f64,
    schedule: &mut Schedule,
    mut job: impl FnMut(usize) -> Option<Sample>,
) -> Result<Vec<Sample>, String> {
    let allowed = CpuSet::current()?;
    let cpus = allowed.cpus();
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut current = None;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= seconds {
            allowed.apply()?;
            return Ok(samples);
        }
        let seg = ((elapsed / seconds * SEGMENTS as f64) as usize).min(SEGMENTS - 1);
        if current != Some(seg) {
            CpuSet::only(cpus[seg % cpus.len()]).apply()?;
            current = Some(seg);
        }
        if let Some(sample) = job(schedule.next_index()) {
            samples.push(Sample { seg, ..sample });
        }
    }
}

pub fn p50(samples: &[Sample]) -> f64 {
    util::median(&samples.iter().map(|s| s.ms).collect::<Vec<_>>())
}

/// `drat-certify`: verdicts in this process, which neither generated nor
/// solved anything, so its peak RSS is checking's.
pub fn certify(ctx: &Ctx, instances: &[Instance]) -> Result<Report, String> {
    let lrat_path = ctx.dir.join("out.lrat");
    let calib = util::calib_ms();
    let weights: Vec<usize> = instances.iter().map(|i| i.weight).collect();
    let mut gate = Gate::default();
    let verdict = |tr: &mut Trace, i: usize, gate: &mut Gate| {
        let inst = &instances[i];
        let start = Instant::now();
        let result = layers::certify(tr, inst, &lrat_path);
        let ms = ms_since(start);
        let adds = result.as_ref().map_or(0, |v| v.adds);
        gate.record(&inst.name, result).then_some(Sample {
            inst: i,
            ms,
            adds,
            seg: 0,
        })
    };

    // a traced run splits its time between an untraced and a traced loop
    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut off = Trace::new(false);
    let mut schedule = Schedule::new(ctx.seed, &weights);
    let samples = closed_loop(seconds, &mut schedule, |i| verdict(&mut off, i, &mut gate))?;
    let peak_rss_kb = util::vm_hwm_kb(None)?;
    if samples.is_empty() {
        return Err("no verdict completed".into());
    }

    let metrics = if ctx.trace {
        let mut tr = Trace::new(true);
        let requests: Vec<Requests> = instances
            .iter()
            .map(Requests::load)
            .collect::<Result<_, _>>()?;
        let cache = layers::warmed_cache(&requests)?;
        let clock = Instant::now();
        let traced = closed_loop(seconds, &mut schedule, |i| {
            tr.begin();
            let sample = verdict(&mut tr, i, &mut gate)?;
            // the layers off the workload's path are probed on the first
            // (p50) instance only, in the first half of the traced loop
            if i == 0 && clock.elapsed().as_secs_f64() < seconds / 2.0 {
                let inst = &instances[i];
                if let Err(e) = layers::probe_all(&mut tr, inst, &requests[i], &cache, &lrat_path) {
                    gate.fail(format!("{}: layer probe: {e}", inst.name));
                }
            }
            Some(sample)
        })?;
        if traced.is_empty() {
            return Err("no traced verdict completed".into());
        }
        layer_metrics(ctx.workload, &tr, p50(&samples), p50(&traced), calib)
    } else {
        series_metrics(&samples, peak_rss_kb)
    };

    cli_gate(ctx, instances, &mut gate);
    Ok(Report {
        gate,
        metrics,
        ready_s: 0.0,
        info: info(ctx, instances, &samples, [calib, util::calib_ms()]),
    })
}

/// Runs the release `satverify` binary; returns its exit status and
/// standard output.
pub fn run_cli(satverify: &Path, args: &[&str]) -> Result<(i32, String), String> {
    let out = Command::new(satverify)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", satverify.display()))?;
    Ok((
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    ))
}

/// Outside the timed region, sends one seeded input through the real CLI:
/// the certify path and the streamed check must each exit 0 with the
/// in-process verdict's core.
fn cli_gate(ctx: &Ctx, instances: &[Instance], gate: &mut Gate) {
    let inst = &instances[Rng::new(ctx.seed ^ 0xC11).below(instances.len())];
    let Some(&(core, _)) = gate.first.get(&inst.name) else {
        return; // never verified in process: already a failed verdict
    };
    let (cnf, drat) = (inst.cnf.to_string_lossy(), inst.drat.to_string_lossy());
    let lrat = ctx.dir.join("cli.lrat");
    let lrat = lrat.to_string_lossy();
    let expect = format!("c core: {core} of");
    // several windows under the default budget, as `--window-kb` sets them
    let window_kb = (inst.sizes[1] / 8 / 1024).max(1).to_string();
    let runs: [&[&str]; 3] = [
        &[
            "check",
            &cnf,
            &drat,
            "--proof-format",
            "drat",
            "--emit-lrat",
            &lrat,
        ],
        &["lrat", &cnf, &lrat],
        &[
            "check",
            &cnf,
            &drat,
            "--proof-format",
            "drat",
            "--stream",
            "--memory-budget",
            "64",
            "--window-kb",
            &window_kb,
        ],
    ];
    for args in runs {
        let ok = match run_cli(&ctx.satverify, args) {
            Ok((0, out)) => args[0] == "lrat" || out.contains(&expect),
            Ok(_) | Err(_) => false,
        };
        if !ok {
            gate.fail(format!(
                "{}: `satverify {}` did not exit 0 with a core of {core}",
                inst.name,
                args.join(" ")
            ));
        }
    }
}

/// The run's record: seed, sizes, machine and build, and the
/// calibration loop timed at the start and the end of the run, which
/// shows whether the machine's speed moved.
pub fn info(ctx: &Ctx, instances: &[Instance], samples: &[Sample], calib_ms: [f64; 2]) -> Json {
    let mut doc = Json::object();
    doc.push("workload", ctx.workload.name());
    doc.push("seed", ctx.seed);
    doc.push("seconds", ctx.seconds);
    doc.push(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    doc.push(
        "nproc",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    let mut insts = Vec::new();
    for (i, inst) in instances.iter().enumerate() {
        let mut e = Json::object();
        e.push("name", inst.name.as_str());
        e.push("weight", inst.weight);
        e.push("clauses", inst.num_clauses);
        e.push("drat_adds", inst.drat_adds);
        e.push("drat_deletes", inst.drat_deletes);
        e.push("native_steps", inst.native_steps);
        e.push("cnf_bytes", inst.sizes[0]);
        e.push("drat_bytes", inst.sizes[1]);
        e.push("proof_bytes", inst.sizes[2]);
        let ms: Vec<f64> = samples
            .iter()
            .filter(|s| s.inst == i)
            .map(|s| s.ms)
            .collect();
        e.push("verdicts", ms.len());
        if !ms.is_empty() {
            e.push("p50_ms", util::median(&ms));
        }
        let p50s = segment_p50s(samples, i);
        e.push(
            "segment_p50_ms",
            Json::array(p50s.into_iter().map(|p| p.map_or(Json::Null, Json::from))),
        );
        e.push(
            "fastest_segments",
            Json::array(fastest_segments(samples, i).into_iter().map(Json::from)),
        );
        insts.push(e);
    }
    doc.push("instances", Json::Array(insts));
    doc.push("calib_ms", Json::array(calib_ms.map(Json::from)));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seg: usize, inst: usize, ms: f64) -> Sample {
        Sample {
            inst,
            ms,
            adds: 1,
            seg,
        }
    }

    #[test]
    fn fastest_segments_rank_by_the_first_instance() {
        let mut samples = Vec::new();
        for (seg, ms) in [30.0, 21.0, 31.0, 22.0, 29.0, 32.0].into_iter().enumerate() {
            samples.push(sample(seg, 0, ms));
            samples.push(sample(seg, 1, 100.0 - ms));
        }
        // a segment that verified only the second instance is chosen only
        // for the second
        samples.push(sample(6, 1, 1.0));
        assert_eq!(fastest_segments(&samples, 0), vec![1, 3]);
        assert_eq!(fastest_segments(&samples, 1), vec![6, 5]);
        let metrics = series_metrics(&samples, 1024);
        assert_eq!(metrics[0], ("verdict_p50_ms", 22.0, "ms"));
        assert_eq!(metrics[1], ("verdict_p90_ms", 68.0, "ms"));
    }
}
