//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for the given time and prints a report, then, as
//! the last line, one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` —
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. Exits 1 when an output check fails, 2 on bad usage.
//!
//! `--spans-out <file>` also writes the first traced episode's spans as
//! a table.

use perfbench::report::{run, write_spans, Workload};
use std::io::Write as _;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<String>,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut spans_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--spans-out" => spans_out = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if spans_out.is_some() && !trace {
        return Err("--spans-out needs --trace 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (fluid_fleet|des_paper|live_fake)")?,
        seed,
        seconds,
        trace,
        spans_out,
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
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} toolchain=\"{}\"",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        env!("PERFBENCH_RUSTC")
    );
    let out = run(args.workload, args.seed, args.seconds, args.trace);
    for line in &out.report {
        println!("{line}");
    }
    for m in out.metrics.iter().chain(&out.extra) {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    if let (Some(path), Some(ep)) = (&args.spans_out, &out.first_traced) {
        let written = std::fs::File::create(path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            write_spans(ep, &mut w)?;
            w.flush()
        });
        if let Err(e) = written {
            eprintln!("perfbench: writing {path}: {e}");
            return ExitCode::from(2);
        }
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// A finite number in JSON; non-finite values (which no metric should
/// produce) become `null` so the line still parses.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
