//! `model-batch`: a seeded corpus of paper-density random DAGs plus the
//! Gauss, Laplace and FFT DAGs (footprints from `assign_mems`),
//! scheduled by FAST, ETF, DLS and HEFT under the ideal, α–β and
//! two-group hierarchical models, and by FAST and HEFT under tight
//! uniform memory capacities, through `schedule_many_par_by` with one
//! thread per core.

use crate::report::{peak_rss_mb, Report};
use crate::spans::{durations, Span, Tracer};
use crate::stats::median;
use crate::{median_setup, reweight, SplitMix, SHAPE_SEED};
use fastsched_algorithms::{schedule_many_par_by, Dls, Etf, Fast, Heft};
use fastsched_dag::{Cost, Dag};
use fastsched_schedule::{
    validate_with, AlphaBeta, CommModel, CostModel, MemoryCapacities, Schedule,
};
use fastsched_workloads::fuzz::assign_mems;
use fastsched_workloads::random::{random_layered_dag, RandomDagConfig};
use fastsched_workloads::{fft_dag, gaussian_elimination_dag, laplace_dag, TimingDatabase};
use std::time::Instant;

pub const PROCS: u32 = 16;
/// Random DAGs of 100, 103, ..., 289 nodes.
const RANDOM_DAGS: usize = 64;

#[derive(Clone, Copy, PartialEq)]
enum Algo {
    Fast,
    Etf,
    Dls,
    Heft,
}

#[derive(Clone, Copy, PartialEq)]
enum Model {
    Ideal,
    AlphaBeta,
    Hier,
    Mem,
}

/// The 14 algorithm × model pairs.
const PAIRS: [(Algo, Model); 14] = [
    (Algo::Fast, Model::Ideal),
    (Algo::Etf, Model::Ideal),
    (Algo::Dls, Model::Ideal),
    (Algo::Heft, Model::Ideal),
    (Algo::Fast, Model::AlphaBeta),
    (Algo::Etf, Model::AlphaBeta),
    (Algo::Dls, Model::AlphaBeta),
    (Algo::Heft, Model::AlphaBeta),
    (Algo::Fast, Model::Hier),
    (Algo::Etf, Model::Hier),
    (Algo::Dls, Model::Hier),
    (Algo::Heft, Model::Hier),
    (Algo::Fast, Model::Mem),
    (Algo::Heft, Model::Mem),
];

fn pair_name(p: (Algo, Model)) -> String {
    let a = match p.0 {
        Algo::Fast => "fast",
        Algo::Etf => "etf",
        Algo::Dls => "dls",
        Algo::Heft => "heft",
    };
    let m = match p.1 {
        Model::Ideal => "ideal",
        Model::AlphaBeta => "alpha_beta",
        Model::Hier => "hier",
        Model::Mem => "mem",
    };
    format!("algorithms.{a}.{m}_ms")
}

/// mem-ab's feasible-by-construction budget: twice the balanced
/// per-lane share, floored by the largest footprint.
pub fn tight_cap(dag: &Dag, procs: u32) -> Cost {
    let max_mem = dag.mems().iter().copied().max().unwrap_or(0);
    2 * dag.total_memory().div_ceil(u64::from(procs)).max(max_mem)
}

pub struct Models {
    ideal: CommModel,
    alpha_beta: CommModel,
    hier: CommModel,
}

impl Models {
    pub fn new() -> Self {
        Self {
            ideal: CommModel::Ideal,
            alpha_beta: CommModel::AlphaBeta(AlphaBeta::new(25, 3, 2)),
            hier: CommModel::parse_spec("hier:8+8@0,1,1@25,3,2").expect("valid hier spec"),
        }
    }
}

fn run_algo<M: CostModel>(a: Algo, d: &Dag, p: u32, m: &M) -> Schedule {
    match a {
        Algo::Fast => Fast::new().schedule_with_model(d, p, m),
        Algo::Etf => Etf::new().schedule_with_model(d, p, m),
        Algo::Dls => Dls::new().schedule_with_model(d, p, m),
        Algo::Heft => Heft::new().schedule_with_model(d, p, m),
    }
}

fn schedule_one(models: &Models, (a, m): (Algo, Model), d: &Dag, p: u32) -> Schedule {
    match m {
        Model::Ideal => run_algo(a, d, p, &models.ideal),
        Model::AlphaBeta => run_algo(a, d, p, &models.alpha_beta),
        Model::Hier => run_algo(a, d, p, &models.hier),
        Model::Mem => run_algo(
            a,
            d,
            p,
            &MemoryCapacities::uniform(CommModel::Ideal, tight_cap(d, p), p),
        ),
    }
}

fn check_one(models: &Models, m: Model, d: &Dag, s: &Schedule) -> Result<(), String> {
    let r = match m {
        Model::Ideal => validate_with(&models.ideal, d, s),
        Model::AlphaBeta => validate_with(&models.alpha_beta, d, s),
        Model::Hier => validate_with(&models.hier, d, s),
        Model::Mem => validate_with(
            &MemoryCapacities::uniform(CommModel::Ideal, tight_cap(d, PROCS), PROCS),
            d,
            s,
        ),
    };
    r.map_err(|e| e.to_string())
}

pub fn corpus(seed: u64) -> Vec<Dag> {
    let db = TimingDatabase::paragon();
    let mut rng = SplitMix(seed ^ 0xB47C);
    let mut dags: Vec<Dag> = (0..RANDOM_DAGS)
        .map(|i| {
            let config = RandomDagConfig::paper(100 + 3 * i, &db);
            reweight(
                &random_layered_dag(&config, SHAPE_SEED + i as u64),
                &config,
                &mut rng,
            )
        })
        .collect();
    dags.push(gaussian_elimination_dag(16, &db));
    dags.push(laplace_dag(16, &db));
    dags.push(fft_dag(64, &db));
    let mut dags: Vec<Dag> = dags
        .iter()
        .map(|d| assign_mems(d, rng.next_u64()))
        .collect();
    rng.shuffle(&mut dags);
    dags
}

struct Setup {
    dags: Vec<Dag>,
    procs: Vec<u32>,
    models: Models,
    /// Reference makespan per pair and item, from the first pass.
    reference: Vec<Vec<u64>>,
}

/// Items of the warm-up pass, which fills allocator and caches before
/// timing.
const WARM_ITEMS: usize = 8;

fn setup(seed: u64, rep: &mut Report) -> Setup {
    let dags = corpus(seed);
    let procs = vec![PROCS; dags.len()];
    let models = Models::new();
    let threads = nproc();
    for pair in PAIRS {
        let warm = &dags[..WARM_ITEMS];
        let out = schedule_many_par_by(warm, &procs[..WARM_ITEMS], threads, |d, p| {
            schedule_one(&models, pair, d, p)
        });
        for (i, (s, _)) in out.iter().enumerate() {
            if let Err(e) = check_one(&models, pair.1, &warm[i], s) {
                rep.wrong(format!(
                    "model-batch {} item {i}: invalid warm-up schedule: {e}",
                    pair_name(pair)
                ));
            }
        }
    }
    Setup {
        dags,
        procs,
        models,
        reference: Vec::new(),
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One pass: every pair over the whole corpus on `threads` threads.
/// Validates each schedule (untimed) against its model, and its
/// makespan against the first pass's. Returns the scheduling wall
/// seconds and the per-item milliseconds.
fn pass(st: &mut Setup, threads: usize, tr: &Tracer, rep: &mut Report) -> (f64, Vec<f64>) {
    let mut wall = 0.0;
    let mut items = Vec::with_capacity(PAIRS.len() * st.dags.len());
    for (k, &pair) in PAIRS.iter().enumerate() {
        let t0 = Instant::now();
        let out = schedule_many_par_by(&st.dags, &st.procs, threads, |d, p| {
            tr.span("algorithms.pair", None, k as u64, || {
                schedule_one(&st.models, pair, d, p)
            })
        });
        wall += t0.elapsed().as_secs_f64();
        if st.reference.len() == k {
            st.reference
                .push(out.iter().map(|(s, _)| s.makespan()).collect());
        }
        let mut bad = 0;
        for (i, (s, secs)) in out.iter().enumerate() {
            items.push(secs * 1e3);
            let check = tr.span("schedule.validate_with", None, k as u64, || {
                check_one(&st.models, pair.1, &st.dags[i], s)
            });
            let reference = st.reference.get(k).map(|r| r[i]);
            let why = match check {
                Err(e) => Some(format!("invalid schedule: {e}")),
                Ok(()) if reference.is_some_and(|m| m != s.makespan()) => Some(format!(
                    "makespan {} differs from the first pass's {reference:?}",
                    s.makespan()
                )),
                Ok(()) => None,
            };
            if let Some(why) = why {
                bad += 1;
                rep.wrong(format!("model-batch {} item {i}: {why}", pair_name(pair)));
            }
        }
        rep.count(out.len() as u64, bad);
    }
    (wall, items)
}

pub fn run(seed: u64, secs: f64, rep: &mut Report) {
    let mut warm = Report::new();
    let (setup_s, mut st) = median_setup(|| setup(seed, &mut warm));
    rep.notes.append(&mut warm.notes);
    rep.correct &= warm.correct;
    let off = Tracer::new(false);
    let threads = nproc();
    let (mut rates, mut lat) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while rates.is_empty() || t0.elapsed().as_secs_f64() < secs {
        let (wall, items) = pass(&mut st, threads, &off, rep);
        rates.push(items.len() as f64 / wall);
        lat.extend(items);
    }
    let passes = rates.len();
    // The median pass: a slow stretch of the host moves one pass, not
    // the figure.
    let rate = median(&rates);
    rep.metric("sched_per_s", rate, "1/s");
    rep.quantile("latency_p50_ms", &lat, 0.5, "ms");
    rep.quantile("latency_p99_ms", &lat, 0.99, "ms");
    rep.metric("max_rate_rps", rate, "req/s");
    let sum: u64 = st.reference.iter().flatten().sum();
    rep.metric("makespan_sum", sum as f64, "units");
    rep.metric(
        "ok_share",
        1.0 - rep.failed as f64 / rep.attempted as f64,
        "ratio",
    );
    rep.metric("setup_s", setup_s, "s");
    rep.metric("peak_rss_mb", peak_rss_mb("self").unwrap_or(f64::NAN), "MB");
    rep.notes.push(format!(
        "model-batch: {passes} passes of {} pairs x {} DAGs ({} nodes) on {threads} threads",
        PAIRS.len(),
        st.dags.len(),
        st.dags.iter().map(Dag::node_count).sum::<usize>()
    ));
}

/// Tracing overhead on the end-to-end figure: per-item p50 of a traced
/// pass sequence against an untraced one.
pub fn overhead(seed: u64, secs: f64, rep: &mut Report) {
    let mut st = setup(seed, rep);
    let threads = nproc();
    let (off, on) = (Tracer::new(false), Tracer::new(true));
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    // Alternate passes so drift hits both sides alike.
    while plain.is_empty() || t0.elapsed().as_secs_f64() < secs {
        plain.extend(pass(&mut st, threads, &off, rep).1);
        traced.extend(pass(&mut st, threads, &on, rep).1);
    }
    crate::report_overhead(rep, "model-batch item p50", median(&plain), median(&traced));
}

/// Per-pair single-thread corpus time, validation time and the
/// parallel efficiency of `schedule_many_par_by`.
pub fn layers(seed: u64, secs: f64, rep: &mut Report) -> Vec<Span> {
    let mut st = setup(seed, rep);
    let tr = Tracer::new(true);
    let threads = nproc();
    let mut single = Vec::new();
    let mut par = Vec::new();
    let t0 = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || t0.elapsed().as_secs_f64() < secs {
        let t = Instant::now();
        pass(&mut st, 1, &tr, rep);
        single.push(t.elapsed().as_secs_f64());
        par.push(pass(&mut st, threads, &Tracer::new(false), rep).0);
        passes += 1;
    }
    let spans = tr.take();
    let per_pass = |name: &str, k: u64| {
        durations(&spans, name, |r| r == k).iter().sum::<f64>() / passes as f64
    };
    let mut single_sum = 0.0;
    for (k, &pair) in PAIRS.iter().enumerate() {
        let ms = per_pass("algorithms.pair", k as u64);
        single_sum += ms;
        rep.metric(pair_name(pair), ms, "ms");
    }
    let validate: f64 = (0..PAIRS.len() as u64)
        .map(|k| per_pass("schedule.validate_with", k))
        .sum();
    rep.metric("schedule.validate_with_ms", validate, "ms");
    let par_wall = median(&par) * 1e3;
    rep.metric(
        "algorithms.batch_par_efficiency",
        single_sum / (threads as f64 * par_wall),
        "ratio",
    );
    rep.notes.push(format!(
        "model-batch layers: {passes} passes; single-thread pair sum {single_sum:.1} ms, \
         {threads}-thread wall {par_wall:.1} ms (single-thread pass incl. validation {:.1} ms)",
        median(&single) * 1e3
    ));
    spans
}
