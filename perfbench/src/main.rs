//! `perfbench` — the benchmark of the paths a user waits on: a certified
//! DRAT check, and daemon jobs answered by verification (misses) or from
//! the verdict cache (hits).
//!
//! USAGE:
//!     perfbench setup <workload> --seed <n> --dir <dir> --repeats <k>
//!     perfbench measure <workload> --seed <n> --dir <dir> --seconds <s>
//!                       --trace <0|1> --satverify <path>
//!
//! `setup` generates, solves and writes one workload's inputs `k` times,
//! printing each duration in seconds on its own line; `measure`
//! runs the closed loop on them in a fresh process and prints one JSON
//! report line. `run.py` drives both and prints the benchmark's result.

mod daemon;
mod inputs;
mod layers;
mod measure;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use inputs::Workload;
use measure::Ctx;

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("error: refusing to benchmark a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}

fn option<'a>(args: &'a [String], flag: &str) -> Result<&'a str, String> {
    let pos = args
        .iter()
        .position(|a| a == flag)
        .ok_or_else(|| format!("missing {flag}"))?;
    args.get(pos + 1)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn number<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<T, String> {
    let text = option(args, flag)?;
    text.parse().map_err(|_| format!("bad {flag} {text:?}"))
}

fn run(args: &[String]) -> Result<(), String> {
    let [command, workload, rest @ ..] = args else {
        return Err("usage: perfbench setup|measure <workload> [options]".into());
    };
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed: u64 = number(rest, "--seed")?;
    let dir = PathBuf::from(option(rest, "--dir")?);
    match command.as_str() {
        "setup" => {
            // each repetition redoes all of the set-up work; one time per line
            for _ in 0..number::<usize>(rest, "--repeats")? {
                let start = std::time::Instant::now();
                inputs::setup(workload, seed, &dir)?;
                println!("{}", start.elapsed().as_secs_f64());
            }
            Ok(())
        }
        "measure" => {
            let satverify = PathBuf::from(option(rest, "--satverify")?);
            if satverify.parent().and_then(|p| p.file_name()) != Some("release".as_ref()) {
                return Err(format!("{} is not a release build", satverify.display()));
            }
            let ctx = Ctx {
                workload,
                seed,
                dir,
                seconds: number(rest, "--seconds")?,
                trace: number::<u8>(rest, "--trace")? == 1,
                satverify,
            };
            let instances = inputs::load(workload, seed, &ctx.dir)?;
            let report = match workload {
                Workload::DratCertify => measure::certify(&ctx, &instances)?,
                Workload::DaemonMiss | Workload::DaemonHit => daemon::measure(&ctx, &instances)?,
            };
            println!("{}", report.to_json().to_compact_string());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    }
}
