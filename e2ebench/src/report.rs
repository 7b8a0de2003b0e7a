//! The result line, the provenance line, and the small statistics both need.

use std::fmt::Write as _;

/// Median of `values` (mean of the middle two for even counts); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Geometric mean of `values`; `NaN` when empty.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Samples of one quantity over a run, summarised as the geometric mean over rounds
/// of each round's median. Within a round the median sets aside a call that lost the
/// CPU. Across rounds the geometric mean weighs every round alike, also where a
/// run's figures drift several-fold from its first round to its last; the median of
/// all samples would stand on the few rounds around the middle of such a run, and an
/// arithmetic or time-weighted mean on its fastest or its slowest rounds.
#[derive(Debug, Default, Clone)]
pub struct PerRound {
    current: Vec<f64>,
    medians: Vec<f64>,
}

impl PerRound {
    pub fn push(&mut self, value: f64) {
        self.current.push(value);
    }

    /// Ends a round; a round without samples adds nothing.
    pub fn end_round(&mut self) {
        if !self.current.is_empty() {
            self.medians.push(median(&self.current));
            self.current.clear();
        }
    }

    /// Geometric mean of the finished rounds' medians; `NaN` when there are none.
    pub fn value(&self) -> f64 {
        geometric_mean(&self.medians)
    }
}

/// Named metrics in the order they were added.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|(n, _, _)| n.as_str())
    }
}

/// Formats a number for JSON: finite values with all their digits, anything else as
/// `null`.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Peak resident set of this process in MB (`VmHWM`), or `NaN` where the kernel does
/// not report it.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// First line of a command's standard output, or `"unknown"` when it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how the numbers were taken, as one JSON object.
pub fn provenance(fields: &[(&str, String)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut pairs = vec![
        (
            "git_revision",
            json_string(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", json_string(&command_line("rustc", &["--version"]))),
        ("nproc", nproc.to_string()),
        ("max_lanes", slimfast_optim::exec::max_lanes().to_string()),
        (
            "SLIMFAST_THREADS",
            std::env::var("SLIMFAST_THREADS").map_or("null".to_string(), |v| json_string(&v)),
        ),
    ];
    pairs.extend(fields.iter().map(|(k, v)| (*k, v.clone())));
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    format!("{{\"provenance\": {{{}}}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn per_round_is_the_geometric_mean_of_round_medians() {
        let mut p = PerRound::default();
        assert!(p.value().is_nan());
        for x in [1.0, 9.0, 2.0] {
            p.push(x);
        }
        p.end_round();
        p.end_round();
        p.push(8.0);
        p.end_round();
        assert!((p.value() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.put("fuse_s", 1.25, "s");
        m.put("rss_peak_mb", f64::NAN, "MB");
        assert_eq!(
            result_line(true, 8, 2, &m),
            "{\"correct\": true, \"attempted\": 8, \"failed\": 2, \"metrics\": {\"fuse_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"rss_peak_mb\": {\"value\": null, \"unit\": \"MB\"}}}"
        );
    }
}
