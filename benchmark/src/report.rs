//! The metric catalogue, the two output formats (`workload metric value
//! unit` lines for people, one JSON object for the driver), and `compare`,
//! which judges two sets of runs by the bounds frozen in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// `(name, unit, lower_is_better)` of every end-to-end metric: each is
/// printed by every workload and gated by a bound in `BENCHMARK.json`.
pub const E2E_METRICS: [(&str, &str, bool); 5] = [
    ("setup_s", "s", true),
    ("ops_per_s", "1/s", false),
    ("cpu_us_per_op", "us", true),
    ("rss_mb", "MiB", true),
    ("lat_p50_us", "us", true),
];

/// `(name, unit)` of every per-layer metric, printed but never gated. A
/// workload a metric does not apply to leaves it out of its lines, and
/// reports it as 0 in the driver's JSON.
pub const LAYER_METRICS: [(&str, &str); 51] = [
    // End-to-end figures too unsteady, or not universal enough, to gate.
    ("lat_p99_us", "us"),
    ("lat_samples", "count"),
    ("recovery_s", "s"),
    ("failed_frac", "frac"),
    // The ladder: the write stream replayed at rungs that each add a layer.
    ("ladder.uf_stream_ns_per_op", "ns"),
    ("ladder.generation_ns_per_op", "ns"),
    ("ladder.service_mem_ns_per_op", "ns"),
    ("ladder.service_wal_ns_per_op", "ns"),
    ("ladder.wire_ns_per_op", "ns"),
    ("ladder.codec_ns_per_op", "ns"),
    ("ladder.wal_append_ns_per_op", "ns"),
    ("ladder.wal_bytes_per_op", "B"),
    ("generation.self_ns_per_op", "ns"),
    ("service.self_ns_per_op", "ns"),
    ("wal.self_ns_per_op", "ns"),
    ("net.self_ns_per_op", "ns"),
    ("evloop.self_ns_per_op", "ns"),
    ("ladder.churn.generation_ns_per_op", "ns"),
    ("ladder.churn.service_mem_ns_per_op", "ns"),
    ("ladder.churn.service_wal_ns_per_op", "ns"),
    ("ladder.churn.wire_ns_per_op", "ns"),
    ("ladder.overhead_frac", "frac"),
    // The daemon's own registry, scraped after the run.
    ("svc.queue_wait_us_mean", "us"),
    ("svc.apply_us_per_batch", "us"),
    ("svc.publish_us_per_batch", "us"),
    ("svc.ops_per_batch", "count"),
    ("svc.batch_rejects", "count"),
    ("wal.append_us_per_batch", "us"),
    ("wal.fsync_us_mean", "us"),
    ("wal.fsyncs", "count"),
    ("wal.bytes_per_op", "B"),
    ("net.coalesce_width_mean", "count"),
    ("net.pipeline_depth_mean", "count"),
    ("net.request_errors", "count"),
    ("gen.rebuilds", "count"),
    ("gen.rebuild_ms_mean", "ms"),
    ("gen.deletes_forest_frac", "frac"),
    // Process accounting.
    ("server.cpu_sys_frac", "frac"),
    ("server.ctx_switches_per_kop", "count"),
    ("client.cpu_frac", "frac"),
    ("client.late_p99_us", "us"),
    ("client.gen_s", "s"),
    ("client.validate_s", "s"),
    ("recovery.replay_ops_per_s", "1/s"),
    ("recovery.wal_mb", "MiB"),
    // The static algorithm's own phases.
    ("static.sampling_s.rmat", "s"),
    ("static.finish_s.rmat", "s"),
    ("static.sampling_s.grid", "s"),
    ("static.finish_s.grid", "s"),
    ("static.sample_coverage.rmat", "frac"),
    ("static.inter_edges_frac.rmat", "frac"),
];

/// The unit of a catalogued metric.
///
/// # Panics
/// On a name outside the catalogue: a typo must not become a new metric.
pub fn unit_of(name: &str) -> &'static str {
    let e2e = E2E_METRICS.iter().map(|&(n, u, _)| (n, u));
    e2e.chain(LAYER_METRICS).find(|&(n, _)| n == name).map(|(_, u)| u).unwrap_or_else(|| {
        panic!("metric {name:?} is not in the catalogue (benchmark/src/report.rs)")
    })
}

/// Everything one workload run produced.
#[derive(Debug, Default, Clone)]
pub struct Report {
    /// The workload's name.
    pub workload: String,
    /// `(metric, value)` in the order set.
    pub values: Vec<(&'static str, f64)>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests refused, errored or unanswered.
    pub failed: u64,
    /// Answers the oracle contradicted.
    pub mismatches: u64,
    /// The first contradiction.
    pub first_mismatch: Option<String>,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: &str) -> Report {
        Report { workload: workload.to_string(), ..Report::default() }
    }

    /// Sets a catalogued metric (a non-finite value becomes 0).
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        let value = if value.is_finite() { value } else { 0.0 };
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Whether every answer checked agreed with the oracle.
    pub fn correct(&self) -> bool {
        self.mismatches == 0
    }

    /// What makes this run a failure (a non-zero exit), if anything: an
    /// oracle mismatch, or a request refused, errored or unanswered.
    pub fn failure(&self) -> Option<String> {
        let workload = &self.workload;
        if !self.correct() {
            let first = self.first_mismatch.as_deref().unwrap_or("?");
            return Some(format!(
                "{workload}: {} oracle mismatches, first: {first}",
                self.mismatches
            ));
        }
        let failed = format!("{workload}: {} of {} requests failed", self.failed, self.attempted);
        (self.failed > 0).then_some(failed)
    }

    /// The `workload metric value unit` lines. In a smoke run every
    /// measured value prints as `null`: the sizes are toys, and a number
    /// would invite comparison.
    pub fn lines(&self, smoke: bool) -> String {
        let mut out = String::new();
        for &(name, value) in &self.values {
            let unit = unit_of(name);
            if smoke && unit != "count" {
                let _ = writeln!(out, "{} {name} null {unit}", self.workload);
            } else {
                let _ = writeln!(out, "{} {name} {value} {unit}", self.workload);
            }
        }
        out
    }

    /// The driver's result object: the end-to-end metrics, or (traced) the
    /// per-layer ones.
    ///
    /// # Panics
    /// If an end-to-end metric was not measured.
    pub fn json(&self, per_layer: bool) -> String {
        let metrics: Vec<String> = if per_layer {
            let metric =
                |&(n, u): &(&'static str, &'static str)| (n, self.get(n).unwrap_or(0.0), u);
            LAYER_METRICS.iter().map(metric).map(json_metric).collect()
        } else {
            let metric = |&(n, u, _): &(&'static str, &'static str, bool)| {
                let v =
                    self.get(n).unwrap_or_else(|| panic!("{} did not measure {n}", self.workload));
                (n, v, u)
            };
            E2E_METRICS.iter().map(metric).map(json_metric).collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_metric((name, value, unit): (&str, f64, &str)) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// The `q`-quantile (0..=1) of unsorted samples by linear interpolation;
/// 0 when empty.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (samples.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    let hi = (lo + 1).min(samples.len() - 1);
    samples[lo] * (1.0 - frac) + samples[hi] * frac
}

/// The median of unsorted samples.
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `[q1, median, q3]` exactly as Python's `statistics.quantiles(v, n=4)`
/// gives them (the driver's rule); a single sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let len = v.len();
    if len < 2 {
        return [v.first().copied().unwrap_or(0.0); 3];
    }
    [1, 2, 3].map(|i| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// The `end_to_end` bounds of a `BENCHMARK.json`, by metric name.
pub fn read_bounds(benchmark_json: &str) -> Result<BTreeMap<String, f64>, String> {
    let after = benchmark_json.split_once("\"end_to_end\"").ok_or("no \"end_to_end\" key")?.1;
    let list = after.split_once(']').ok_or("unterminated \"end_to_end\" list")?.0;
    let mut bounds = BTreeMap::new();
    for object in list.split('{').skip(1) {
        let field = |key: &str| -> Option<&str> {
            let rest = object.split_once(&format!("\"{key}\""))?.1.split_once(':')?.1;
            Some(rest.split([',', '}']).next()?.trim().trim_matches('"'))
        };
        let name = field("name").ok_or("an end_to_end entry has no name")?;
        let bound = field("bound").and_then(|b| b.parse::<f64>().ok());
        bounds.insert(name.to_string(), bound.ok_or(format!("{name} has no numeric bound"))?);
    }
    Ok(bounds)
}

/// Every `workload metric value unit` line under `path` (a file, or a
/// directory of files), grouped by `(workload, metric)`.
pub fn read_set(path: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let files: Vec<_> = if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        entries.flatten().map(|e| e.path()).filter(|p| p.is_file()).collect()
    } else {
        vec![path.to_path_buf()]
    };
    let mut set: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        for line in text.lines() {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            if let [workload, metric, value, _unit] = tokens[..] {
                if let Ok(v) = value.parse::<f64>() {
                    set.entry((workload.to_string(), metric.to_string())).or_default().push(v);
                }
            }
        }
    }
    Ok(set)
}

/// How set B stands to set A on one `(workload, metric)` pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// A set's own inter-quartile spread exceeds the bound: no verdict.
    Unresolved,
}

/// Judges B against A (A's median is the base of every ratio).
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1].abs().max(f64::MIN_POSITIVE);
    if spread(qa) > bound || spread(qb) > bound {
        return Verdict::Unresolved;
    }
    let change = qb[1] / qa[1].abs().max(f64::MIN_POSITIVE) - 1.0;
    let worse = if lower_is_better { change } else { -change };
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The `compare` table: per end-to-end metric, one workload per row, with
/// both sets' quartiles, the ratio of medians (base: set A) and the
/// verdict under the metric's frozen bound. Returns the table and whether
/// every pair was `unchanged`.
pub fn compare(
    a: &BTreeMap<(String, String), Vec<f64>>,
    b: &BTreeMap<(String, String), Vec<f64>>,
    bounds: &BTreeMap<String, f64>,
) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut all_unchanged = true;
    for (metric, unit, lower) in E2E_METRICS {
        let bound =
            *bounds.get(metric).ok_or(format!("BENCHMARK.json has no bound for {metric}"))?;
        let better = if lower { "lower" } else { "higher" };
        let _ = writeln!(out, "{metric} [{unit}], {better} is better, bound {bound}");
        let _ = writeln!(
            out,
            "  {:<14} {:>38} {:>38} {:>8}  verdict",
            "workload", "A: q1 / median / q3 (runs)", "B: q1 / median / q3 (runs)", "B/A"
        );
        for ((workload, _), va) in a.iter().filter(|((_, m), _)| m == metric) {
            let Some(vb) = b.get(&(workload.clone(), metric.to_string())) else {
                return Err(format!("set B has no {workload} {metric}"));
            };
            let verdict = judge(va, vb, lower, bound);
            all_unchanged &= verdict == Verdict::Unchanged;
            let cell = |v: &[f64]| {
                // Four significant digits are all a spread of percents needs.
                let [q1, q2, q3] =
                    quartiles(v).map(|x| format!("{x:.*}", if x >= 1000.0 { 0 } else { 4 }));
                format!("{q1} / {q2} / {q3} ({})", v.len())
            };
            let ratio = quartiles(vb)[1] / quartiles(va)[1];
            let verdict = format!("{verdict:?}").to_lowercase();
            let _ = writeln!(
                out,
                "  {workload:<14} {:>38} {:>38} {ratio:>8.4}  {verdict}",
                cell(va),
                cell(vb)
            );
        }
    }
    Ok((out, all_unchanged))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        let v = [46.0, 1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0];
        assert_eq!(quartiles(&v), [3.5, 13.5, 31.0]);
        // statistics.quantiles([3, 1, 2, 5, 4], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let scaled = |f: f64| base.map(|x| x * f);
        assert_eq!(judge(&base, &scaled(1.0), true, 0.1), Verdict::Unchanged);
        assert_eq!(judge(&base, &scaled(1.09), true, 0.1), Verdict::Unchanged);
        assert_eq!(judge(&base, &scaled(1.2), true, 0.1), Verdict::Regressed);
        assert_eq!(judge(&base, &scaled(1.2), false, 0.1), Verdict::Improved);
        assert_eq!(judge(&base, &scaled(0.8), false, 0.1), Verdict::Regressed);
        let noisy = [100.0, 130.0, 80.0, 120.0, 70.0];
        assert_eq!(judge(&base, &noisy, true, 0.1), Verdict::Unresolved);
        assert_eq!(judge(&noisy, &base, true, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn report_prints_both_formats() {
        let mut r = Report::new("wire_write");
        for (name, _, _) in E2E_METRICS {
            r.set(name, 1.5);
        }
        r.set("wal.fsyncs", 12.0);
        r.set("ops_per_s", f64::NAN);
        r.attempted = 10;
        assert!(r.lines(false).contains("wire_write setup_s 1.5 s\n"));
        assert!(r.lines(false).contains("wire_write ops_per_s 0 1/s\n"));
        assert!(r.lines(true).contains("wire_write setup_s null s\n"));
        assert!(r.lines(true).contains("wire_write wal.fsyncs 12 count\n"));
        let e2e = r.json(false);
        assert!(
            e2e.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {")
        );
        assert!(e2e.contains("\"rss_mb\": {\"value\": 1.5, \"unit\": \"MiB\"}"));
        assert!(!e2e.contains("wal.fsyncs"));
        let layers = r.json(true);
        assert!(layers.contains("\"wal.fsyncs\": {\"value\": 12, \"unit\": \"count\"}"));
        assert!(layers.contains("\"gen.rebuilds\": {\"value\": 0, \"unit\": \"count\"}"));
        assert_eq!(layers.matches("\"unit\"").count(), LAYER_METRICS.len());
        // What turns into a non-zero exit: any failed request, any mismatch.
        assert_eq!(r.failure(), None);
        r.failed = 1;
        assert_eq!(r.failure().as_deref(), Some("wire_write: 1 of 10 requests failed"));
        r.mismatches = 1;
        assert!(r.failure().unwrap().contains("1 oracle mismatches"));
        assert!(r.json(false).starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metric_names_are_refused() {
        Report::new("w").set("ops_per_sec", 1.0);
    }

    /// The catalogue and the committed `BENCHMARK.json` must name the same
    /// metrics with the same units.
    #[test]
    fn benchmark_json_agrees_with_the_catalogue() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let bounds = read_bounds(&text).unwrap();
        let names: Vec<&str> = E2E_METRICS.iter().map(|m| m.0).collect();
        assert_eq!(bounds.keys().map(String::as_str).collect::<Vec<_>>(), {
            let mut sorted = names.clone();
            sorted.sort_unstable();
            sorted
        });
        // The driver refuses a bound above 0.25.
        assert!(bounds.values().all(|&b| b > 0.0 && b <= 0.25));
        for (name, unit, lower) in E2E_METRICS {
            let better = if lower { "lower" } else { "higher" };
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\":"
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let per_layer = text.split_once("\"per_layer\"").unwrap().1;
        for (name, unit) in LAYER_METRICS {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\":");
            assert!(per_layer.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(per_layer.matches("\"name\"").count(), LAYER_METRICS.len());
    }
}
