//! `perfbench --workload <lib-stream|region-mix|sim-stream> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints notes and one line per metric, then, as the last line, the JSON
//! result `{"correct", "attempted", "failed", "metrics"}`. A traced run
//! also writes its spans as Chrome/Perfetto JSON under `perfbench/out/`.
//! Exits non-zero if any output or simulated statistic fails its check.

use perfbench::{run, Workload};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| bad("expected 1..=600"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut rep, spans) = run(
        args.workload,
        args.seed,
        Duration::from_secs(args.seconds),
        args.trace,
    );
    if let Some(json) = spans {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!(
            "{dir}/{}-seed{}.trace.json",
            args.workload.name(),
            args.seed
        );
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => rep.note(format!("span file: {path}")),
            Err(e) => {
                eprintln!("perfbench: writing {path}: {e}");
                return ExitCode::from(3);
            }
        }
    }
    print!("{}", rep.render(args.trace));
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} operations failed their checks",
            rep.failed, rep.attempted
        );
        ExitCode::FAILURE
    }
}
