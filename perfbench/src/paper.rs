//! `paper-random`: FAST on the paper's Fig. 8 layered random DAGs
//! (v = 2000..5000, about 35 edges per node, 64 processors), in
//! process, single-threaded, closed loop, on a warm `Workspace`. One
//! call is `schedule_into`, then `validate`, then placement render.

use crate::report::{peak_rss_mb, Report};
use crate::spans::{durations, Span, SpanId, Tracer};
use crate::stats::{loglog_slope, median, median_group_rate, self_time};
use crate::{median_setup, reweight, SplitMix, SHAPE_SEED};
use fastsched_algorithms::{Fast, FastConfig, Scheduler, Workspace};
use fastsched_casch::protocol::{placements_json, placements_of};
use fastsched_dag::{
    classify_nodes_into, cpn_dominate_list_into, AttrLanes, CpnListConfig, CpnListScratch, Dag,
    GraphAttributes,
};
use fastsched_schedule::{validate, DeltaEvaluator, ProcId};
use fastsched_workloads::random::{random_layered_dag, RandomDagConfig};
use fastsched_workloads::timing::TimingDatabase;
use std::hint::black_box;
use std::time::Instant;

pub const SIZES: [usize; 4] = [2000, 3000, 4000, 5000];
pub const PROCS: u32 = 64;
/// Call order of one closed-loop cycle (indices into [`SIZES`]). The
/// 2000- and 3000-node DAGs run twice so that p50 is the middle of the
/// v3000 class and p99 lies inside the v5000 class, never on a boundary
/// between two classes.
const CYCLE: [usize; 6] = [0, 1, 2, 0, 1, 3];
/// Random DAGs per size: one graph's structure sets how much work FAST
/// does at that size, so each size spans several. Odd, so the v3000
/// class median is the middle DAG's, not a boundary between two.
const PER_SIZE: usize = 3;

/// Input index of the `k`-th closed-loop call: sizes in [`CYCLE`]
/// order, rotating through each size's DAGs.
fn input_of(k: usize) -> usize {
    CYCLE[k % CYCLE.len()] * PER_SIZE + (k / CYCLE.len()) % PER_SIZE
}

pub struct Input {
    pub v: usize,
    pub dag: Dag,
}

pub fn inputs(seed: u64) -> Vec<Input> {
    let db = TimingDatabase::paragon();
    let mut rng = SplitMix(seed ^ 0xF168);
    SIZES
        .iter()
        .flat_map(|&v| std::iter::repeat_n(v, PER_SIZE))
        .enumerate()
        .map(|(i, v)| {
            let config = RandomDagConfig::paper(v, &db);
            let shape = random_layered_dag(&config, SHAPE_SEED + i as u64);
            Input {
                v,
                dag: reweight(&shape, &config, &mut rng),
            }
        })
        .collect()
}

/// One end-to-end call. Returns the makespan, or `None` when the
/// schedule fails validation.
fn call(
    fast: &Fast,
    dag: &Dag,
    ws: &mut Workspace,
    tr: &Tracer,
    parent: SpanId,
    req: u64,
) -> Option<u64> {
    let s = tr.span("algorithms.schedule_into", parent, req, || {
        fast.schedule_into(dag, PROCS, ws)
    });
    let ok = tr.span("schedule.validate", parent, req, || {
        validate(dag, &s).is_ok()
    });
    let text = tr.span("casch.render", parent, req, || {
        placements_json(&placements_of(&s))
    });
    black_box(text.len());
    let makespan = s.makespan();
    ws.recycle(s);
    ok.then_some(makespan)
}

struct Setup {
    inputs: Vec<Input>,
    ws: Workspace,
    reference: Vec<u64>,
}

fn setup(seed: u64) -> Setup {
    let inputs = inputs(seed);
    let mut ws = Workspace::new();
    let fast = Fast::new();
    let off = Tracer::new(false);
    // Warm-up: one call per DAG fills every workspace buffer and fixes
    // the reference makespan each later call must repeat.
    let reference = inputs
        .iter()
        .map(|i| call(&fast, &i.dag, &mut ws, &off, None, 0).unwrap_or(0))
        .collect();
    Setup {
        inputs,
        ws,
        reference,
    }
}

/// Closed loop for `secs` seconds; per-call latencies in ms.
fn closed_loop(st: &mut Setup, secs: f64, tr: &Tracer, rep: &mut Report) -> (Vec<f64>, f64) {
    let fast = Fast::new();
    let mut lat = Vec::with_capacity(4096);
    let t0 = Instant::now();
    let mut k = 0usize;
    let mut bad = 0u64;
    while t0.elapsed().as_secs_f64() < secs || lat.len() < CYCLE.len() {
        let i = input_of(k);
        let c0 = Instant::now();
        let root = tr.open("call", None, i as u64);
        let got = call(&fast, &st.inputs[i].dag, &mut st.ws, tr, root, i as u64);
        tr.close(root);
        lat.push(c0.elapsed().as_secs_f64() * 1e3);
        if got != Some(st.reference[i]) {
            bad += 1;
            rep.wrong(format!(
                "paper-random v{}: call {k} gave {got:?}, reference makespan {}",
                st.inputs[i].v, st.reference[i]
            ));
        }
        k += 1;
    }
    let wall = t0.elapsed().as_secs_f64();
    rep.count(lat.len() as u64, bad);
    (lat, wall)
}

pub fn run(seed: u64, secs: f64, rep: &mut Report) {
    let (setup_s, mut st) = median_setup(|| setup(seed));
    for (inp, &m) in st.inputs.iter().zip(&st.reference) {
        if m == 0 {
            rep.wrong(format!("paper-random v{}: warm-up schedule invalid", inp.v));
        }
    }
    let (lat, wall) = closed_loop(&mut st, secs, &Tracer::new(false), rep);
    let n = lat.len();
    // About ten groups, each of whole rotations through all DAGs.
    let rotation = CYCLE.len() * PER_SIZE;
    let group = rotation * (n / rotation / 10).max(1);
    let rate = median_group_rate(&lat, group);
    rep.metric("sched_per_s", rate, "1/s");
    rep.quantile("latency_p50_ms", &lat, 0.5, "ms");
    rep.quantile("latency_p99_ms", &lat, 0.99, "ms");
    rep.metric("max_rate_rps", rate, "req/s");
    rep.metric(
        "makespan_sum",
        st.reference.iter().sum::<u64>() as f64,
        "units",
    );
    rep.metric(
        "ok_share",
        1.0 - rep.failed as f64 / rep.attempted as f64,
        "ratio",
    );
    rep.metric("setup_s", setup_s, "s");
    rep.metric("peak_rss_mb", peak_rss_mb("self").unwrap_or(f64::NAN), "MB");
    let class_p50: Vec<String> = (0..SIZES.len())
        .map(|i| {
            let own: Vec<f64> = lat
                .iter()
                .enumerate()
                .filter(|(k, _)| input_of(*k) / PER_SIZE == i)
                .map(|(_, &l)| l)
                .collect();
            format!("v{} {:.2} ms", SIZES[i], median(&own))
        })
        .collect();
    rep.notes.push(format!(
        "paper-random: {n} calls in {wall:.2} s on {PER_SIZE} DAGs per size; p50 per size: {}",
        class_p50.join(", ")
    ));
}

/// Tracing overhead on the end-to-end figure: the p50 call latency of
/// a traced closed loop against an untraced one of equal length.
pub fn overhead(seed: u64, secs: f64, rep: &mut Report) {
    let mut st = setup(seed);
    let (off, on) = (Tracer::new(false), Tracer::new(true));
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    // Alternate short stretches so drift hits both sides alike.
    for _ in 0..(secs / 0.5).ceil() as usize / 2 {
        plain.extend(closed_loop(&mut st, 0.25, &off, rep).0);
        traced.extend(closed_loop(&mut st, 0.25, &on, rep).0);
    }
    crate::report_overhead(
        rep,
        "paper-random call p50",
        median(&plain),
        median(&traced),
    );
}

/// Per-layer ledger of one FAST call, by size, from spans around each
/// public call. Layers FAST runs internally are timed as standalone
/// calls on the same DAG with warm buffers; placement is derived.
pub fn layers(seed: u64, secs: f64, rep: &mut Report) -> Vec<Span> {
    let tr = &Tracer::new(true);
    let mut st = setup(seed);
    let fast = Fast::new();
    let fast0 = Fast::with_config(FastConfig {
        max_steps: 0,
        ..FastConfig::default()
    });
    let mut lanes = AttrLanes::new();
    let mut attrs = GraphAttributes::empty();
    let (mut classes, mut seen, mut stack) = (Vec::new(), Vec::new(), Vec::new());
    let mut scratch = CpnListScratch::new();
    let mut list = Vec::new();
    let mut eval = DeltaEvaluator::empty();
    let mut assign: Vec<ProcId> = Vec::new();
    let mut gain = vec![0.0; st.inputs.len()];

    let t0 = Instant::now();
    let mut rounds = 0;
    while rounds < 3 || t0.elapsed().as_secs_f64() < secs {
        for (i, inp) in st.inputs.iter().enumerate() {
            let (d, r) = (&inp.dag, i as u64);
            tr.span("dag.attributes", None, r, || {
                GraphAttributes::compute_soa_into(d, &mut lanes, &mut attrs)
            });
            tr.span("dag.classify", None, r, || {
                classify_nodes_into(d, &attrs, &mut classes, &mut seen, &mut stack)
            });
            tr.span("dag.cpn_list", None, r, || {
                cpn_dominate_list_into(
                    d,
                    &attrs,
                    &classes,
                    CpnListConfig::default(),
                    &mut scratch,
                    &mut list,
                )
            });
            let s0 = tr.span("algorithms.schedule_into.maxstep0", None, r, || {
                fast0.schedule_into(d, PROCS, &mut st.ws)
            });
            assign.clear();
            assign.extend(s0.tasks().map(|t| t.proc));
            tr.span("schedule.eval_init", None, r, || {
                eval.reset(d, &list, &assign, PROCS)
            });
            let m0 = s0.makespan();
            st.ws.recycle(s0);
            let root = tr.open("call", None, r);
            let got = call(&fast, d, &mut st.ws, tr, root, r);
            tr.close(root);
            if got != Some(st.reference[i]) {
                rep.wrong(format!("paper-random v{}: traced call gave {got:?}", inp.v));
            }
            gain[i] = (m0 as f64 - st.reference[i] as f64) / m0 as f64 * 100.0;
        }
        rounds += 1;
    }
    let spans = tr.take();
    emit_layers(&spans, &st.inputs, &gain, rep);
    rep.notes.push(format!(
        "paper-random layers: {rounds} rounds over {PER_SIZE} DAGs per size"
    ));
    spans
}

/// Per-size medians over every DAG of the size, and slopes against the
/// size's mean edge count.
fn emit_layers(spans: &[Span], inputs: &[Input], gain: &[f64], rep: &mut Report) {
    let med =
        |name: &str, i: usize| median(&durations(spans, name, |r| r as usize / PER_SIZE == i));
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let edges: Vec<f64> = inputs
        .chunks(PER_SIZE)
        .map(|c| {
            mean(
                &c.iter()
                    .map(|i| i.dag.edge_count() as f64)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let mut series: Vec<(&str, Vec<f64>)> = Vec::new();
    let mut unexplained = Vec::new();
    for i in 0..SIZES.len() {
        let attrs = med("dag.attributes", i);
        let classify = med("dag.classify", i);
        let list = med("dag.cpn_list", i);
        let eval = med("schedule.eval_init", i);
        let sched0 = med("algorithms.schedule_into.maxstep0", i);
        let full = med("algorithms.schedule_into", i);
        let validate = med("schedule.validate", i);
        let render = med("casch.render", i);
        let call = med("call", i);
        let placement = self_time(sched0, &[attrs, classify, list, eval]);
        let search = self_time(full, &[sched0]);
        let layer_sum = attrs + classify + list + eval + placement + search + validate + render;
        unexplained.push(1.0 - layer_sum / call);
        for (name, v) in [
            ("dag.attributes_ms", attrs),
            ("dag.classify_ms", classify),
            ("dag.cpn_list_ms", list),
            ("schedule.eval_init_ms", eval),
            ("algorithms.placement_ms", placement),
            ("algorithms.search_ms", search),
            ("schedule.validate_ms", validate),
            ("casch.render_ms", render),
            ("call_ms", call),
        ] {
            match series.iter_mut().find(|s| s.0 == name) {
                Some(s) => s.1.push(v),
                None => series.push((name, vec![v])),
            }
        }
    }
    for (name, vals) in &series {
        for (v, x) in SIZES.iter().zip(vals) {
            rep.metric(format!("{name}.v{v}"), *x, "ms");
        }
        let slope = loglog_slope(&edges, vals).unwrap_or(f64::NAN);
        rep.metric(format!("{name}.slope"), slope, "ratio");
    }
    for (i, v) in SIZES.iter().enumerate() {
        rep.metric(format!("dag.edges.v{v}"), edges[i], "count");
        let g = mean(&gain[i * PER_SIZE..(i + 1) * PER_SIZE]);
        rep.metric(format!("algorithms.search_gain_pct.v{v}"), g, "%");
        rep.metric(format!("unexplained_share.v{v}"), unexplained[i], "ratio");
    }
}
