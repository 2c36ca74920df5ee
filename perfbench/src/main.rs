//! `perfbench`: the workspace benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times the workload's call end to end and prints the
//! end-to-end metrics; with `--trace 1` it splits the same workload's wall
//! time across layers, from outside, and prints the per-layer metrics. The
//! last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Inputs are generated from `--seed` only.

mod harness;
#[cfg(test)]
mod tests;
mod workloads;

use std::process::ExitCode;

use workloads::Size;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <drift_sra|solve_web|route_flash|popularity_tick> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown flag {flag}")),
        };
        if slot.replace(value.clone()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let need = |v: Option<String>, name: &str| v.ok_or_else(|| format!("--{name} is required"));
    let seconds: f64 = need(seconds, "seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must lie in (0, 60]".into());
    }
    Ok(Args {
        workload: need(workload, "workload")?,
        seed: need(seed, "seed")?
            .parse()
            .map_err(|_| "--seed must be a non-negative integer".to_string())?,
        seconds,
        trace: match need(trace, "trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
    })
}

/// Pins `REX_THREADS` (read by the parallel solver paths) to at most the
/// number of hardware threads, and at most 2 unless the caller asks for
/// more, so results from different hosts stay comparable. Returns
/// `(threads, nproc)`.
fn pin_threads() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let asked = std::env::var("REX_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(2);
    let threads = asked.min(nproc);
    std::env::set_var("REX_THREADS", threads.to_string());
    (threads, nproc)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (threads, nproc) = pin_threads();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} REX_THREADS={threads} nproc={nproc}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut out = match workloads::run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Size::Full,
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for line in &out.notes {
        println!("{line}");
    }
    for m in &out.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", out.result_line());
    ExitCode::SUCCESS
}
