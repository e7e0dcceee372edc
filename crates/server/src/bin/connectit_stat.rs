//! `connectit-stat` — a `top`-style live view over a running server's
//! `METRICS` exposition.
//!
//! ```text
//! connectit-stat [--addr HOST:PORT] [--interval-ms MS] [--count N]
//! ```
//!
//! Polls the `METRICS` verb every interval and renders one row per
//! series: the current value, and — for monotone `_total` counters —
//! the per-second rate over the last interval. With a TTY the screen is
//! redrawn in place; piped output appends one block per sample, so the
//! tool doubles as a plain-text scraper (`--count 1` takes a single
//! snapshot and exits). `--count 0` (the default) polls until killed.

use cc_server::WireClient;
use std::collections::BTreeMap;
use std::io::IsTerminal;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Opts {
    addr: String,
    interval: Duration,
    count: u64,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: connectit-stat [--addr HOST:PORT] [--interval-ms MS] [--count N]\n\
         \x20  --addr          server to poll (default 127.0.0.1:7411)\n\
         \x20  --interval-ms   poll interval (default 1000)\n\
         \x20  --count N       stop after N samples (default 0 = forever)"
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        addr: "127.0.0.1:7411".to_string(),
        interval: Duration::from_millis(1000),
        count: 0,
    };
    let mut it = args.iter();
    let next_val = |flag: &str, it: &mut std::slice::Iter<String>| -> Result<String, String> {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => opts.addr = next_val(a, &mut it)?,
            "--interval-ms" => {
                let ms: u64 =
                    next_val(a, &mut it)?.parse().map_err(|_| "bad --interval-ms".to_string())?;
                opts.interval = Duration::from_millis(ms.max(1));
            }
            "--count" => {
                opts.count = next_val(a, &mut it)?.parse().map_err(|_| "bad --count".to_string())?
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// One scrape, flattened: series name (labels included) → value. `# TYPE`
/// comments are dropped; the name/value split is the final space, so
/// labeled series (`…{follower="1"} 7`) parse like plain ones.
fn parse_sample(lines: &[String]) -> BTreeMap<String, u64> {
    let mut sample = BTreeMap::new();
    for l in lines {
        if l.starts_with('#') {
            continue;
        }
        if let Some((name, val)) = l.rsplit_once(' ') {
            if let Ok(v) = val.parse::<u64>() {
                sample.insert(name.to_string(), v);
            }
        }
    }
    sample
}

fn render(
    addr: &str,
    seq: u64,
    sample: &BTreeMap<String, u64>,
    prev: Option<&BTreeMap<String, u64>>,
    dt: Duration,
    redraw: bool,
) -> std::io::Result<()> {
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut w = std::io::BufWriter::new(stdout.lock());
    if redraw {
        // Clear and home, like top: each sample repaints the screen.
        write!(w, "\x1b[2J\x1b[H")?;
    }
    writeln!(
        w,
        "connectit-stat {addr} sample={seq} interval={:.1}s series={}",
        dt.as_secs_f64(),
        sample.len()
    )?;
    let width = sample.keys().map(|k| k.len()).max().unwrap_or(0);
    for (name, &v) in sample {
        // A rate is meaningful only for monotone counters with a prior
        // sample; gauges and summary quantiles print their value alone.
        let is_counter = name.contains("_total") || name == "connectit_epoch";
        match (is_counter, prev.and_then(|p| p.get(name))) {
            (true, Some(&pv)) => {
                let rate = v.saturating_sub(pv) as f64 / dt.as_secs_f64().max(1e-9);
                writeln!(w, "{name:<width$}  {v:>14}  {rate:>12.1}/s")?;
            }
            _ => writeln!(w, "{name:<width$}  {v:>14}")?,
        }
    }
    w.flush()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return usage();
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("connectit-stat: {e}");
            return usage();
        }
    };
    let mut client = match WireClient::text(opts.addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("connectit-stat: connect to {} failed: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    let redraw = std::io::stdout().is_terminal();
    let mut prev: Option<(BTreeMap<String, u64>, Instant)> = None;
    let mut seq = 0u64;
    loop {
        let lines = match client.metrics() {
            Ok(lines) => lines,
            Err(e) => {
                eprintln!("connectit-stat: scrape failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let now = Instant::now();
        let sample = parse_sample(&lines);
        let (prev_sample, dt) = match &prev {
            Some((p, at)) => (Some(p), now.duration_since(*at)),
            None => (None, opts.interval),
        };
        seq += 1;
        if let Err(e) = render(&opts.addr, seq, &sample, prev_sample, dt, redraw) {
            // A closed pipe (`connectit-stat | head`) is a clean exit,
            // not a failure.
            if e.kind() == std::io::ErrorKind::BrokenPipe {
                return ExitCode::SUCCESS;
            }
            eprintln!("connectit-stat: write failed: {e}");
            return ExitCode::FAILURE;
        }
        if opts.count != 0 && seq >= opts.count {
            return ExitCode::SUCCESS;
        }
        prev = Some((sample, now));
        std::thread::sleep(opts.interval);
    }
}
