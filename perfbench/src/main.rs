//! Command-line entry of the pipeline benchmark (`perfbench/run.py` builds and
//! calls it). Prints informational lines, then the result as one JSON object on
//! the last line of standard output.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use djx_perfbench::{run, Kind, Options};

/// Seconds after which a wedged run (say, a hung socket) gives up instead of
/// blocking its caller; inside the 180 s a run may take.
const WATCHDOG_S: u64 = 170;

const USAGE: &str = "usage: djx-perfbench --workload <alloc-churn|miss-dense|fleet-live> \
                     --seed N --seconds S --trace 0|1 [--scale F] [--out-dir DIR]";

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut kind, mut seed, mut seconds) = (None, None, None);
    let (mut trace, mut scale, mut out_dir) =
        (false, 1.0, PathBuf::from("perfbench/target/perfbench-out"));
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--scale" => scale = value.parse::<f64>().map_err(|e| bad(&e))?,
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Options {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale,
        out_dir,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Detached on purpose: it only ever ends the process.
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(WATCHDOG_S));
        eprintln!("perfbench: run exceeded {WATCHDOG_S} s, giving up");
        std::process::exit(3);
    });
    let outcome = run(&opts);
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
