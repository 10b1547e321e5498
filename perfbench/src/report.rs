//! Result assembly: metrics by name with units, sample counts beside
//! every percentile, the run stamp, and the final one-line JSON result.

use std::fmt::Write as _;
use std::path::Path;

/// What one run prints. `metrics` keeps insertion order.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    /// Sample count behind each reported percentile, by metric name.
    samples: Vec<(String, usize)>,
    /// Human-readable facts printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// A percentile metric together with the number of samples it
    /// rests on.
    pub fn percentile(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        n: usize,
    ) {
        let name = name.into();
        self.samples.push((name.clone(), n));
        self.metric(name, value, unit);
    }

    /// Percentile `q` of `samples` as a metric. Below the sample-count
    /// rule the interpolated value is still reported, with a warning.
    pub fn quantile(&mut self, name: &str, samples: &[f64], q: f64, unit: &'static str) {
        let n = samples.len();
        let value = crate::stats::percentile(samples, q).unwrap_or_else(|| {
            self.notes.push(format!(
                "WARNING {name} rests on {n} samples, fewer than the rule asks for"
            ));
            if n == 0 {
                f64::NAN
            } else {
                crate::stats::quantile(samples, q)
            }
        });
        self.percentile(name, value, unit, n);
    }

    /// Record `n` more attempted operations of which `bad` failed.
    pub fn count(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Mark the run incorrect (invalid schedule or mismatch).
    pub fn wrong(&mut self, why: String) {
        self.correct = false;
        if self.notes.len() < 64 {
            self.notes.push(format!("ERROR {why}"));
        }
    }

    /// `# samples` line, the notes, then the result line — which must
    /// be the last line of standard output. Every value must be finite.
    pub fn print(&self, stamp: &str) -> Result<(), String> {
        println!("# stamp {stamp}");
        for n in &self.notes {
            println!("# {n}");
        }
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(k, n)| format!("\"{k}\":{n}"))
            .collect();
        println!("# samples {{{}}}", samples.join(","));
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            if i > 0 {
                metrics.push(',');
            }
            let _ = write!(
                metrics,
                "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
            );
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        Ok(())
    }
}

/// Peak resident set (VmHWM) of process `pid` ("self" for this one),
/// in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The stamp every result carries: core count, compiler, source
/// revision, seed and build profile.
pub fn stamp(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\
         \"nproc\":{nproc},\"rustc\":\"{rustc}\",\"git_rev\":\"{}\",\"source_fnv\":\"{:016x}\",\
         \"profile\":\"{}\"}}",
        git_rev(),
        source_hash(Path::new(".")),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    )
}

/// `git rev-parse HEAD` when the working directory is itself a git
/// checkout; "none" otherwise (the source hash still identifies the
/// code).
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "none".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("none".to_string(), |s| s.trim().to_string())
}

/// FNV-1a over the path and bytes of every source and manifest file
/// under `crates/` and `perfbench/`, in sorted order, plus the root
/// manifest and lock file.
fn source_hash(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if matches!(
                p.extension().and_then(|x| x.to_str()),
                Some("rs" | "toml" | "lock" | "sh")
            ) {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
