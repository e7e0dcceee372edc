//! `e2e` — the untraced end-to-end run, and `compare`.
//!
//! ```text
//! e2e --workload W --seed S --seconds T --trace 0   one workload; the driver's form
//! e2e run [--seed S] [--seconds T] [--smoke] [--out FILE]   all five workloads
//! e2e compare <setA> <setB>                       judged by ./BENCHMARK.json
//! ```
//!
//! A workload prints `workload metric value unit` lines and, last, the
//! driver's one-line JSON result. Exit codes: 0 clean; 1 an oracle
//! mismatch or a failed request, after the result is printed (`compare`:
//! a pair not `unchanged`); 2 usage or I/O; 3 a `run` that was correct
//! but `noisy`.

use connectit_benchmark::report::{compare, read_bounds, read_set};
use connectit_benchmark::workloads::run_workload;
use connectit_benchmark::{daemon, exit, pin_pool_threads, Args};
use std::path::Path;
use std::process::ExitCode;

fn run_compare(args: &Args) -> Result<bool, String> {
    let [a, b] = &args.operands[..] else {
        return Err("compare takes two sets (files or directories of run output)".into());
    };
    let bounds = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|text| read_bounds(&text))?;
    let (table, unchanged) = compare(&read_set(Path::new(a))?, &read_set(Path::new(b))?, &bounds)?;
    print!("{table}");
    Ok(unchanged)
}

fn main() -> ExitCode {
    pin_pool_threads();
    daemon::trap_signals();
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match (args.command.as_deref(), args.workload.as_deref()) {
            (Some("compare"), None) => run_compare(&args).map(|unchanged| u8::from(!unchanged)),
            (Some("run"), None) => args.run_all().map_err(|e| e.to_string()),
            (None, Some(name)) if !args.trace => args
                .run_one(name, |name, cfg| run_workload(name, cfg, None))
                .map_err(|e| e.to_string()),
            (None, Some(_)) => {
                Err("the traced run is the `layers` binary (run.sh dispatches)".into())
            }
            _ => {
                Err("usage: e2e --workload W --seed S --seconds T --trace 0 | run | compare A B"
                    .into())
            }
        }
    });
    exit("e2e", outcome)
}
