//! The repo's yardstick: five workloads and one layer ladder (ISSUE 11).
//!
//! `e2e` measures what a user of the system sees, untraced, and judges two
//! sets of runs against the bounds frozen in `BENCHMARK.json`; `layers` is
//! the separate traced run that says where the time goes. See
//! `benchmark/README.md` for every workload and metric.
//!
//! Everything in this library reaches the system under test only through
//! the `connectit-serve` CLI, the PROTOCOL.md wire format, `Service` /
//! `Client::submit` and `connectit::connectivity_timed`; `ci.sh` greps
//! that it stays so. Only `src/bin/layers.rs` calls deeper.

#![warn(missing_docs)]

pub mod daemon;
pub mod drive;
pub mod oracle;
pub mod procstat;
pub mod report;
pub mod stream;
pub mod trace;
pub mod wire;
pub mod workloads;

use std::path::PathBuf;
use workloads::Config;

/// The command line both binaries share.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `run`, `compare`, or none (the driver's single-workload form).
    pub command: Option<String>,
    /// `--workload`.
    pub workload: Option<String>,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--trace 0|1`.
    pub trace: bool,
    /// `--smoke`.
    pub smoke: bool,
    /// `--out FILE`: also append the metric lines here.
    pub out: Option<PathBuf>,
    /// Positional operands (the two sets of `compare`).
    pub operands: Vec<String>,
}

impl Args {
    /// Parses `args` (without the program name).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            command: None,
            workload: None,
            seed: 1,
            seconds: 10.0,
            trace: false,
            smoke: false,
            out: None,
            operands: Vec::new(),
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().ok_or(format!("{arg} needs a value"));
            match arg.as_str() {
                "--workload" => out.workload = Some(value()?),
                "--seed" => out.seed = value()?.parse().map_err(|_| "bad --seed")?,
                "--seconds" => out.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
                "--trace" => out.trace = value()? != "0",
                "--smoke" => out.smoke = true,
                "--out" => out.out = Some(PathBuf::from(value()?)),
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                _ if out.command.is_none() && out.workload.is_none() => out.command = Some(arg),
                _ => out.operands.push(arg),
            }
        }
        if !(out.seconds > 0.0 && out.seconds <= 60.0) {
            return Err("--seconds must be in (0, 60]".into());
        }
        Ok(out)
    }

    /// The run these arguments describe. Scratch and traces go to
    /// `benchmark/out` under the current directory (the checkout's root).
    pub fn config(&self) -> std::io::Result<Config> {
        Ok(Config {
            seed: self.seed,
            seconds: if self.smoke { 1.0 } else { self.seconds },
            smoke: self.smoke,
            out_dir: PathBuf::from("benchmark/out"),
            daemon_binary: daemon::find_daemon_binary()?,
        })
    }
}

impl Args {
    /// The single-workload form, the driver's: prints the metric lines,
    /// then the one-line result object (`--trace 1`: the per-layer
    /// metrics). Returns the exit code: 1 after an oracle mismatch or a
    /// failed request, else 0.
    pub fn run_one(
        &self,
        workload: &str,
        run: impl FnOnce(&str, &Config) -> std::io::Result<report::Report>,
    ) -> std::io::Result<u8> {
        println!("{}", environment_line());
        let report = run(workload, &self.config()?)?;
        print!("{}", report.lines(self.smoke));
        println!("{}", report.json(self.trace));
        Ok(u8::from(report.failure().inspect(|why| eprintln!("{why}")).is_some()))
    }

    /// The `run` command: every workload in turn, each in a process of its
    /// own (so that one workload's peak memory is not the next one's), as
    /// `<this executable> --workload W …`. Prints the children's metric
    /// lines and appends them to `--out`. Exit code: the worst child's,
    /// else 3 when the run was correct but `noisy` — the 1-minute load
    /// average exceeded the core count before a workload began, or a
    /// generator used over 0.9 of its CPU (`client.cpu_frac`).
    pub fn run_all(&self) -> std::io::Result<u8> {
        use std::io::Write;
        let exe = std::env::current_exe()?;
        let (mut worst, mut noisy) = (0u8, false);
        for workload in workloads::WORKLOADS {
            let (load, cores) = (procstat::loadavg(), procstat::nproc());
            if load > cores as f64 && !self.smoke {
                eprintln!("{workload}: noisy: 1-min loadavg {load} exceeds {cores} cores at start");
                noisy = true;
            }
            let mut child = std::process::Command::new(&exe);
            child.args(["--workload", workload, "--seed", &self.seed.to_string()]);
            child.args([
                "--seconds",
                &self.seconds.to_string(),
                "--trace",
                &u8::from(self.trace).to_string(),
            ]);
            if self.smoke {
                child.arg("--smoke");
            }
            let output = child.stderr(std::process::Stdio::inherit()).output()?;
            // The child ends with the driver's JSON object: not for people.
            let text = String::from_utf8_lossy(&output.stdout);
            let lines: String =
                text.lines().filter(|l| !l.starts_with('{')).map(|l| format!("{l}\n")).collect();
            print!("{lines}");
            if let Some(path) = &self.out {
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?
                    .write_all(lines.as_bytes())?;
            }
            let cpu_frac =
                lines.lines().find_map(|l| l.strip_prefix(&format!("{workload} client.cpu_frac ")));
            if let Some(frac) =
                cpu_frac.and_then(|rest| rest.split(' ').next()?.parse::<f64>().ok())
            {
                if frac > 0.9 {
                    eprintln!("{workload}: noisy: generator-bound, client.cpu_frac {frac:.2}");
                    noisy = true;
                }
            }
            worst = worst.max(output.status.code().map_or(2, |c| c as u8));
        }
        Ok(if worst == 0 && noisy { 3 } else { worst })
    }
}

/// Ends `main`: the exit code, or the error on stderr and code 2.
pub fn exit(bin: &str, outcome: Result<u8, String>) -> std::process::ExitCode {
    std::process::ExitCode::from(outcome.unwrap_or_else(|e| {
        eprintln!("{bin}: {e}");
        2
    }))
}

/// Pins the worker pool of in-process workloads to the daemon's
/// `CC_NUM_THREADS=2`, unless the caller chose otherwise. Call first in
/// `main`, before any thread exists.
pub fn pin_pool_threads() {
    if std::env::var_os("CC_NUM_THREADS").is_none() {
        std::env::set_var("CC_NUM_THREADS", "2");
    }
}

/// One `#` line describing the box and the build, printed above results.
pub fn environment_line() -> String {
    let tool = |cmd: &str, args: &[&str]| {
        let out = std::process::Command::new(cmd).args(args).output().ok();
        let text = out
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
        text.filter(|t| !t.is_empty()).unwrap_or_else(|| "unknown".into())
    };
    format!(
        "# nproc={} loadavg={} commit={} rustc={:?}",
        procstat::nproc(),
        procstat::loadavg(),
        tool("git", &["rev-parse", "--short", "HEAD"]),
        tool("rustc", &["--version"]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_and_human_forms_parse() {
        let a = parse("--workload wire_read --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("wire_read"), 7, 10.0, true)
        );
        assert_eq!(a.command, None);
        let a = parse("run --seed 3 --smoke --out runs/a.txt").unwrap();
        assert_eq!((a.command.as_deref(), a.seed, a.smoke), (Some("run"), 3, true));
        assert_eq!(a.out, Some(PathBuf::from("runs/a.txt")));
        let a = parse("compare setA setB").unwrap();
        assert_eq!((a.command.as_deref(), a.operands.len()), (Some("compare"), 2));
        assert!(parse("--seed").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--frobnicate 1").is_err());
    }
}
