//! The fastsched benchmark: three seeded workloads that time calls into
//! the public functions of `fastsched-dag`, `fastsched-algorithms`,
//! `fastsched-schedule` and the `fastsched-casch` protocol, and drive a
//! spawned `casch serve` over loopback TCP.
//!
//! ```text
//! perfbench --workload <paper-random|model-batch|serve-apps> --seed <n>
//!           --seconds <s> --trace <0|1> [--casch <path to casch>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of the workload; `--trace 1`
//! prints the per-layer ledger (every layer of every workload, from
//! spans around each public call, written to `perfbench/out/`) plus
//! the tracing overhead on the named workload. The last line of
//! standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (name → value and unit). Any invalid
//! schedule or response mismatch makes the exit code 1.

mod batch;
mod openloop;
mod paper;
mod report;
mod serve;
mod spans;
mod stats;

use fastsched_dag::{Cost, Dag, DagBuilder};
use fastsched_workloads::random::RandomDagConfig;
use report::Report;
use std::time::Instant;

pub const WORKLOADS: [&str; 3] = ["paper-random", "model-batch", "serve-apps"];

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;

/// Run `f` [`SETUP_REPS`] times; the median wall time in seconds and
/// the last result (earlier ones are dropped, which stops any server
/// they started).
pub fn median_setup<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    (stats::median(&times), last.expect("at least one set-up"))
}

pub fn report_overhead(rep: &mut Report, what: &str, plain_ms: f64, traced_ms: f64) {
    let pct = (traced_ms - plain_ms) / plain_ms * 100.0;
    rep.notes.push(format!(
        "tracing overhead on {what}: traced {traced_ms:.4} ms - untraced {plain_ms:.4} ms = {:.4} ms ({pct:+.2}%)",
        traced_ms - plain_ms
    ));
    rep.metric("trace.overhead_pct", pct, "%");
}

/// Generator seed base for the random DAGs' shapes. Shapes are fixed
/// and `--seed` draws their weights: how much work FAST, ETF or DLS
/// does on a layered random DAG follows mostly from its shape (layer
/// count and widths), so drawing shapes per seed would make the
/// seed-to-seed spread a lottery over shapes instead of a measure of
/// the run.
pub const SHAPE_SEED: u64 = 0x5EED_0000;

/// `dag` with the same nodes and edges and fresh weights drawn from
/// `config`'s ranges, as `random_layered_dag` draws them.
pub fn reweight(dag: &Dag, config: &RandomDagConfig, rng: &mut SplitMix) -> Dag {
    let mut draw = |(lo, hi): (Cost, Cost)| lo + rng.below(hi - lo + 1);
    let mut b = DagBuilder::with_capacity(dag.node_count(), dag.edge_count());
    for _ in dag.nodes() {
        b.add_task(draw(config.node_weight));
    }
    for (src, dst, _) in dag.edges() {
        b.add_edge(src, dst, draw(config.edge_weight))
            .expect("same edges as an acyclic graph");
    }
    b.build().expect("same structure stays acyclic")
}

/// splitmix64: the benchmark's own seeded choices (weights, orders).
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    casch: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        casch: "target/release/casch".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            val.parse::<u64>()
                .map_err(|_| format!("{flag}: `{val}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?.max(1),
            "--trace" => a.trace = num()? != 0,
            "--casch" => a.casch = val.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(a)
}

/// The traced run: the named workload's tracing overhead, then the
/// per-layer ledger of all three workloads, sharing the time budget.
fn traced(a: &Args, rep: &mut Report) -> Result<(), String> {
    let s = a.seconds as f64;
    match a.workload.as_str() {
        "paper-random" => paper::overhead(a.seed, s * 0.2, rep),
        "model-batch" => batch::overhead(a.seed, s * 0.2, rep),
        _ => serve::overhead(a.seed, s * 0.2, &a.casch, rep)?,
    }
    let mut spans = paper::layers(a.seed, s * 0.3, rep);
    spans.extend(batch::layers(a.seed, s * 0.2, rep));
    spans.extend(serve::layers(a.seed, s * 0.3, &a.casch, rep)?);
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{}.ndjson", a.workload, a.seed));
    std::fs::write(&path, spans::to_ndjson(&spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    rep.notes.push(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
    Ok(())
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let secs = a.seconds as f64;
    let mut rep = Report::new();
    let result = if a.trace {
        traced(&a, &mut rep)
    } else {
        match a.workload.as_str() {
            "paper-random" => {
                paper::run(a.seed, secs, &mut rep);
                Ok(())
            }
            "model-batch" => {
                batch::run(a.seed, secs, &mut rep);
                Ok(())
            }
            _ => serve::run(a.seed, secs, &a.casch, &mut rep),
        }
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    let stamp = report::stamp(&a.workload, a.seed, a.seconds, a.trace);
    if let Err(e) = rep.print(&stamp) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    if !rep.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsched_workloads::random::random_layered_dag;
    use fastsched_workloads::TimingDatabase;

    #[test]
    fn reweight_keeps_the_shape_and_draws_weights_in_range() {
        let config = RandomDagConfig::paper(120, &TimingDatabase::paragon());
        let shape = random_layered_dag(&config, SHAPE_SEED);
        let a = reweight(&shape, &config, &mut SplitMix(1));
        let b = reweight(&shape, &config, &mut SplitMix(1));
        let c = reweight(&shape, &config, &mut SplitMix(2));
        let edges = |d: &Dag| d.edges().map(|(s, t, _)| (s, t)).collect::<Vec<_>>();
        assert_eq!(edges(&a), edges(&shape));
        assert_eq!(a.weights(), b.weights(), "same seed, same weights");
        assert_ne!(a.weights(), c.weights());
        let (lo, hi) = config.node_weight;
        assert!(a.weights().iter().all(|w| (lo..=hi).contains(w)));
        let (lo, hi) = config.edge_weight;
        assert!(a.edges().all(|(_, _, c)| (lo..=hi).contains(&c)));
    }
}
