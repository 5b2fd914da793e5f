//! `daemon-miss` and `daemon-hit`: one client connection to a real
//! `satverify serve` child (reactor I/O, `--workers 1`, the cache at its
//! default budget) sends one `verify` job at a time, following a seeded
//! interleaving of cache hits and misses. Both workloads run the same
//! traffic; `daemon-miss` reports the miss series and `daemon-hit` the
//! hit series.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use satverify::obs::json::Json;
use satverifyd::{Request, Response, StatsReply, VerdictCache, DEFAULT_CACHE_BYTES};

use crate::inputs::{Instance, Workload};
use crate::layers::{self, Requests};
use crate::measure::{self, Ctx, Gate, Report, Sample};
use crate::util::{self, ms_since, Rng, Schedule, Trace};

/// Misses per second of `--seconds`, each with `HITS_PER_MISS` hits; a
/// 2-vCPU VM answers them in 70-100% of that time. A run sends a fixed
/// number of jobs, so the misses each daemon stores, and with them its
/// peak memory, do not depend on how fast it answers; `measure` checks
/// that they fit the cache.
const MISSES_PER_SECOND: f64 = 12.0;

/// Hits cost a tenth of a miss, so two per miss double the hit series at
/// little cost; its p90 lies in the second instance's cluster, which
/// holds a fifth of the hits.
const HITS_PER_MISS: usize = 2;

/// An untraced run starts one daemon per segment, one after the other,
/// each serving an equal share of the jobs. No single process's start (its
/// heap, its pages) decides a run's metrics, and the daemon part of
/// `setup_s` is the median of starts spread over the whole run.
const DAEMONS: usize = measure::SEGMENTS;

/// Untimed misses per instance each daemon answers before it is timed.
const WARM_MISSES: usize = 2;

/// The serving child; killed and reaped if the run ends early.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    endpoint: String,
}

impl Daemon {
    fn spawn(satverify: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(satverify)
            .args([
                "serve",
                "--listen",
                "tcp:127.0.0.1:0",
                "--workers",
                "1",
                "--io",
                "reactor",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", satverify.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let mut daemon = Daemon {
            child,
            stdout,
            endpoint: String::new(),
        };
        read.map_err(|e| format!("cannot read the daemon's banner: {e}"))?;
        daemon.endpoint = banner
            .trim()
            .strip_prefix("c satverifyd listening on tcp:")
            .ok_or_else(|| format!("unexpected daemon banner {banner:?}"))?
            .to_string();
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for the drained daemon to exit 0.
    fn join(mut self) -> Result<(), String> {
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("the daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Ok(None) => return Err("the daemon did not exit after shutdown".into()),
                Err(e) => return Err(format!("cannot wait for the daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One client connection sending pre-built request lines.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn connect(endpoint: &str) -> Result<Conn, String> {
        let writer = TcpStream::connect(endpoint)
            .map_err(|e| format!("cannot connect to {endpoint}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer,
            reader,
            line: String::new(),
        })
    }

    /// Sends one newline-terminated request and reads the response line.
    fn round_trip(&mut self, request: &str) -> Result<(), String> {
        self.line.clear();
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("the daemon closed the connection".into()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    fn response(&self) -> Result<Response, String> {
        Response::parse(self.line.trim_end())
    }

    fn request(&mut self, request: &Request) -> Result<Response, String> {
        self.round_trip(&format!("{}\n", request.to_line()))?;
        self.response()
    }

    fn stats(&mut self) -> Result<StatsReply, String> {
        match self.request(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(format!("stats answered {other:?}")),
        }
    }
}

/// The `steps_checked` of a verified result, or why it is not one.
fn verified_steps(response: Result<Response, String>) -> Result<usize, String> {
    match response? {
        Response::Result(r) if r.outcome == "verified" => Ok(r.steps_checked.unwrap_or(0) as usize),
        other => Err(format!("the daemon answered {other:?}")),
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Miss,
}

/// One scheduled job; a hit sends its instance's shared hit line.
struct Job {
    kind: Kind,
    inst: usize,
    miss: Option<String>,
}

/// The seeded interleaving of `count` misses: per block, `HITS_PER_MISS`
/// hits and one miss in seeded order; each kind draws its instances by
/// the pool's weights.
fn jobs(
    seed: u64,
    count: usize,
    instances: &[Instance],
    requests: &[Requests],
    first_miss: usize,
) -> Vec<Job> {
    let weights: Vec<usize> = instances.iter().map(|i| i.weight).collect();
    let mut kinds = Schedule::new(seed, &[HITS_PER_MISS, 1]);
    let mut hits = Schedule::new(seed.wrapping_add(1), &weights);
    let mut misses = Schedule::new(seed.wrapping_add(2), &weights);
    let mut n = first_miss;
    (0..count * (HITS_PER_MISS + 1))
        .map(|_| {
            if kinds.next_index() == 0 {
                Job {
                    kind: Kind::Hit,
                    inst: hits.next_index(),
                    miss: None,
                }
            } else {
                let inst = misses.next_index();
                n += 1;
                let miss = Some(requests[inst].miss(&format!("miss {seed} {n}")));
                Job {
                    kind: Kind::Miss,
                    inst,
                    miss,
                }
            }
        })
        .collect()
}

fn counter(stats: &StatsReply, name: &str) -> u64 {
    stats.counter(name).unwrap_or(0)
}

/// Starts `satverify serve` and warms its cache with every instance's hit
/// request. Each warm verdict must check as many clauses as the first
/// daemon's warm verdict of that instance.
fn start(
    ctx: &Ctx,
    instances: &[Instance],
    requests: &[Requests],
    gate: &mut Gate,
) -> Result<(Daemon, Conn), String> {
    let daemon = Daemon::spawn(&ctx.satverify)?;
    let mut conn = Conn::connect(&daemon.endpoint)?;
    for (inst, r) in instances.iter().zip(requests) {
        conn.round_trip(&r.hit)?;
        gate.attempted += 1;
        let steps =
            verified_steps(conn.response()).map_err(|e| format!("warming {}: {e}", inst.name))?;
        let first = *gate.first.entry(inst.name.clone()).or_insert((0, steps));
        if first != (0, steps) {
            gate.fail(format!(
                "{}: a warming verdict checked {steps} clauses, the first {}",
                inst.name, first.1
            ));
        }
    }
    Ok((daemon, conn))
}

/// Drains the daemon with `shutdown` and waits for it to exit 0.
fn stop(daemon: Daemon, mut conn: Conn) -> Result<(), String> {
    match conn.request(&Request::Shutdown)? {
        Response::ShuttingDown => {}
        other => return Err(format!("shutdown answered {other:?}")),
    }
    drop(conn);
    daemon.join()
}

/// The in-process layer probes of a traced daemon: they follow misses of
/// the first (p50) instance until `until`.
struct Probes<'a> {
    cache: &'a VerdictCache<()>,
    until: Instant,
}

/// What one daemon served: the miss and hit series, its start time (spawn
/// and warm), its peak memory and the cache counters it moved.
struct Served {
    series: [Vec<Sample>; 2],
    ready_s: f64,
    peak_rss_kb: u64,
    hits: u64,
    misses: u64,
}

/// Starts a daemon, sends it `jobs` one at a time, checks its counters
/// against the mix sent, optionally runs the CLI cross-check, and drains
/// it. Jobs are skipped once `deadline` has passed.
#[allow(clippy::too_many_arguments)]
fn serve(
    ctx: &Ctx,
    instances: &[Instance],
    requests: &[Requests],
    jobs: &[Job],
    deadline: Instant,
    gate: &mut Gate,
    tr: &mut Trace,
    probes: Option<&Probes>,
    cli: bool,
) -> Result<Served, String> {
    let begin = Instant::now();
    let (daemon, mut conn) = start(ctx, instances, requests, gate)?;
    let ready_s = begin.elapsed().as_secs_f64();
    // untimed warm-up: the first misses of a fresh process grow its heap
    // and fault its pages in
    for (i, inst) in instances.iter().enumerate() {
        for k in 0..WARM_MISSES {
            conn.round_trip(&requests[i].miss(&format!("warm {k}")))?;
            gate.attempted += 1;
            match verified_steps(conn.response()) {
                Ok(s) if Some(&(0, s)) == gate.first.get(&inst.name) => {}
                Ok(s) => gate.fail(format!("{}: a warm-up miss checked {s} clauses", inst.name)),
                Err(e) => gate.fail(format!("{}: warm-up: {e}", inst.name)),
            }
        }
    }
    let before = conn.stats()?;
    let mut series: [Vec<Sample>; 2] = [Vec::new(), Vec::new()];
    let mut sent = [0u64; 2];
    for job in jobs {
        if Instant::now() > deadline {
            break;
        }
        let kind = usize::from(job.kind == Kind::Hit);
        let inst = &instances[job.inst];
        let begin = Instant::now();
        let line = job.miss.as_deref().unwrap_or(&requests[job.inst].hit);
        let answered = conn.round_trip(line);
        let ms = ms_since(begin);
        sent[kind] += 1;
        gate.attempted += 1;
        match answered.and_then(|()| verified_steps(conn.response())) {
            Ok(s) if Some(&(0, s)) == gate.first.get(&inst.name) => {
                series[kind].push(Sample {
                    inst: job.inst,
                    ms,
                    adds: inst.native_steps as u64,
                    seg: 0,
                });
            }
            Ok(s) => gate.fail(format!(
                "{}: the daemon checked {s} clauses, unlike its first verdict",
                inst.name
            )),
            Err(e) => gate.fail(format!("{}: {e}", inst.name)),
        }
        let probing = job.kind == Kind::Miss && job.inst == 0;
        if let Some(p) = probes.filter(|p| probing && Instant::now() < p.until) {
            tr.begin();
            let lrat_path = ctx.dir.join("out.lrat");
            if let Err(e) = layers::probe_all(tr, inst, &requests[job.inst], p.cache, &lrat_path) {
                gate.fail(format!("{}: layer probe: {e}", inst.name));
            }
        }
    }
    let after = conn.stats()?;
    let peak_rss_kb = util::vm_hwm_kb(Some(daemon.pid()))?;

    // the server's counters must match the mix this client sent
    let delta = |name| counter(&after, name) - counter(&before, name);
    for (name, want) in [
        ("cache_hits", sent[1]),
        ("cache_misses", sent[0]),
        ("cache_evictions", 0),
        ("cache_coalesced", 0),
    ] {
        if delta(name) != want {
            gate.fail(format!(
                "server counter {name} moved by {}, expected {want}",
                delta(name)
            ));
        }
    }
    let (hits, misses) = (delta("cache_hits"), delta("cache_misses"));

    if cli {
        cli_gate(ctx, instances, requests, &daemon.endpoint, gate);
    }
    let last = conn.stats()?;
    let accounted: u64 = [
        "overloaded",
        "draining_rejected",
        "invalid_input",
        "verified",
        "rejected",
        "exhausted",
        "cancelled_queued",
        "internal_errors",
    ]
    .iter()
    .map(|name| counter(&last, name))
    .sum();
    if accounted != counter(&last, "submitted") {
        gate.fail(format!(
            "the daemon accounted for {accounted} of {} submissions",
            counter(&last, "submitted")
        ));
    }
    stop(daemon, conn)?;
    Ok(Served {
        series,
        ready_s,
        peak_rss_kb,
        hits,
        misses,
    })
}

pub fn measure(ctx: &Ctx, instances: &[Instance]) -> Result<Report, String> {
    let requests: Vec<Requests> = instances
        .iter()
        .map(Requests::load)
        .collect::<Result<_, _>>()?;
    let calib = util::calib_ms();
    let misses = (ctx.seconds * MISSES_PER_SECOND).ceil() as usize;
    // a traced run splits its jobs between an untraced and a traced daemon
    let (untraced_misses, traced_misses) = if ctx.trace {
        (misses / 2, misses - misses / 2)
    } else {
        (misses, 0)
    };
    let untraced_jobs = jobs(ctx.seed, untraced_misses, instances, &requests, 0);
    let traced_jobs = jobs(
        ctx.seed.wrapping_add(3),
        traced_misses,
        instances,
        &requests,
        untraced_misses,
    );
    // a traced run sends its untraced and its traced jobs to one daemon each
    let chunk = untraced_jobs
        .len()
        .div_ceil(if ctx.trace { 1 } else { DAEMONS })
        .max(1);
    let chunks: Vec<&[Job]> = untraced_jobs.chunks(chunk).collect();
    // the warm hits, the warm-up misses and every miss one daemon stores
    // must fit its cache, so that no warm entry is ever evicted
    let warm: usize = requests
        .iter()
        .map(|r| r.hit.len() * (1 + WARM_MISSES))
        .sum();
    for jobs in chunks.iter().copied().chain([traced_jobs.as_slice()]) {
        let stored = warm
            + jobs
                .iter()
                .filter_map(|j| j.miss.as_ref().map(String::len))
                .sum::<usize>();
        if stored as u64 > DEFAULT_CACHE_BYTES / 10 * 9 {
            return Err(format!(
                "{stored} bytes of cached requests would not fit the daemon's cache"
            ));
        }
    }

    let mut gate = Gate::default();
    // the cap only stops a run far slower than the schedule assumes
    let deadline = Instant::now() + Duration::from_secs_f64(3.0 * ctx.seconds);
    let mut served = Vec::new();
    let mut off = Trace::new(false);
    for (i, jobs) in chunks.iter().enumerate() {
        let cli = !ctx.trace && i + 1 == chunks.len();
        let mut s = serve(
            ctx, instances, &requests, jobs, deadline, &mut gate, &mut off, None, cli,
        )?;
        // each daemon is one segment of the run
        for sample in s.series.iter_mut().flatten() {
            sample.seg = i;
        }
        served.push(s);
    }
    let mut tr = Trace::new(true);
    let traced = if ctx.trace {
        let cache = layers::warmed_cache(&requests)?;
        // the traced daemon answers in about half of `--seconds`; the
        // probes run in the first half of that
        let probes = Probes {
            cache: &cache,
            until: Instant::now() + Duration::from_secs_f64(ctx.seconds / 4.0),
        };
        let s = serve(
            ctx,
            instances,
            &requests,
            &traced_jobs,
            deadline,
            &mut gate,
            &mut tr,
            Some(&probes),
            true,
        )?;
        tr.count("cache.hits", s.hits as f64);
        tr.count("cache.misses", s.misses as f64);
        Some(s)
    } else {
        None
    };

    let kind = usize::from(ctx.workload == Workload::DaemonHit);
    let untraced: Vec<Sample> = served
        .iter_mut()
        .flat_map(|s| std::mem::take(&mut s.series[kind]))
        .collect();
    if untraced.is_empty() {
        return Err("no verdict completed".into());
    }
    let ready_s = util::median(&served.iter().map(|s| s.ready_s).collect::<Vec<_>>());
    let peak_rss_kb = util::median(
        &served
            .iter()
            .map(|s| s.peak_rss_kb as f64)
            .collect::<Vec<_>>(),
    );
    let metrics = match traced {
        Some(t) if t.series[kind].is_empty() => return Err("no traced verdict completed".into()),
        Some(t) => {
            let (untraced_p50, traced_p50) =
                (measure::p50(&untraced), measure::p50(&t.series[kind]));
            measure::layer_metrics(ctx.workload, &tr, untraced_p50, traced_p50, calib)
        }
        None => measure::series_metrics(&untraced, peak_rss_kb as u64),
    };
    let mut info = measure::info(ctx, instances, &untraced, [calib, util::calib_ms()]);
    info.push(
        "ready_runs_s",
        Json::array(served.iter().map(|s| Json::from(s.ready_s))),
    );
    Ok(Report {
        gate,
        metrics,
        ready_s,
        info,
    })
}

/// Outside the timed region, one seeded input goes through `satverify
/// client`, made a miss by its own comment line so the daemon checks it;
/// it must exit 0 having checked as many clauses as the run's verdicts.
fn cli_gate(
    ctx: &Ctx,
    instances: &[Instance],
    requests: &[Requests],
    endpoint: &str,
    gate: &mut Gate,
) {
    let i = Rng::new(ctx.seed ^ 0xC11).below(instances.len());
    let inst = &instances[i];
    let Some(&(_, checked)) = gate.first.get(&inst.name) else {
        return;
    };
    let cnf = ctx.dir.join("gate.cnf");
    let text = format!("c perfbench gate {}\n{}", ctx.seed, requests[i].formula);
    if let Err(e) = std::fs::write(&cnf, text) {
        gate.fail(format!("cannot write {}: {e}", cnf.display()));
        return;
    }
    let endpoint = format!("tcp:{endpoint}");
    let (cnf, proof) = (cnf.to_string_lossy(), inst.proof.to_string_lossy());
    let args = ["client", &endpoint, "check", &cnf, &proof];
    let ok = matches!(
        measure::run_cli(&ctx.satverify, &args),
        Ok((0, out)) if out.contains(&format!("c {checked} clauses checked"))
    );
    if !ok {
        gate.fail(format!(
            "{}: `satverify {}` did not exit 0 with {checked} clauses checked",
            inst.name,
            args.join(" ")
        ));
    }
}
