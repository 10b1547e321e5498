//! `serve-apps`: an open loop against a spawned release `casch serve
//! --threads 2` over one loopback connection, at a fixed offered rate
//! with seeded jitter within each request's slot. Requests cycle
//! through a seeded order of the paper's applications (Gauss N = 4..32,
//! Laplace N = 4..32, FFT 16..512 points), FAST on 16 processors; a
//! quarter carry an α–β `comm` model and an eighth carry `mem_caps`.

use crate::batch::tight_cap;
use crate::openloop::{self, Outcome};
use crate::report::{peak_rss_mb, Report};
use crate::spans::{durations, Span, Tracer};
use crate::stats::{median, quantile, slope};
use crate::{median_setup, SplitMix};
use fastsched_algorithms::{Fast, Scheduler, Workspace};
use fastsched_casch::loadgen::scrape_metrics;
use fastsched_casch::protocol::{
    placements_json, placements_of, CommSpec, Request, Response, ScheduleRequest, ScheduleResponse,
};
use fastsched_dag::io::DagSpec;
use fastsched_dag::Dag;
use fastsched_schedule::{
    validate_with, AlphaBeta, CommModel, MemCapsSpec, MemoryCapacities, Schedule,
};
use fastsched_workloads::fuzz::assign_mems;
use fastsched_workloads::{fft_dag, gaussian_elimination_dag, laplace_dag, TimingDatabase};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

pub const PROCS: u32 = 16;
/// The fixed offered rate latency is measured at (requests per second),
/// about half of what the parent's server sustains on this mix.
pub const RATE: f64 = 34.0;
/// Latency ceiling a rate must meet in the max-rate search.
const P99_CEILING_MS: f64 = 250.0;
/// Latency growth across one search step beyond which the backlog
/// counts as growing.
const GROWTH_MS: f64 = 50.0;
const DRAIN: Duration = Duration::from_secs(20);

#[derive(Clone, Copy, PartialEq, Debug)]
enum Variant {
    Plain,
    Comm,
    Mem,
}

/// One distinct request of the cycle, with the response bytes a local
/// run of the same scheduler and model produces.
struct Item {
    /// The request line after its `"id":N,` field.
    tail: String,
    dag: Dag,
    schedule: Schedule,
    /// `"makespan":M,"placements":[...],` as the server must render it.
    expect: String,
}

const AB: AlphaBeta = AlphaBeta {
    alpha: 25,
    beta_num: 3,
    beta_den: 2,
};

fn apps() -> Vec<Dag> {
    let db = TimingDatabase::paragon();
    let mut dags: Vec<Dag> = (4..=32).map(|n| gaussian_elimination_dag(n, &db)).collect();
    dags.extend((4..=32).map(|n| laplace_dag(n, &db)));
    dags.extend([16, 32, 64, 128, 256, 512].map(|p| fft_dag(p, &db)));
    dags
}

/// Order positions generated per run: the fixed-rate phase walks them
/// from the start, the max-rate search replays [`SEARCH_REQUESTS`]
/// from [`SEARCH_POS`].
const CYCLES: usize = 40;
/// Size strata per cycle (the cycle's 64 applications in 8 blocks).
const STRATA: usize = 8;
/// Stratum order within a block, largest = 7: large and small
/// alternate, and the two largest strata sit half a block apart.
const INTERLEAVE: [usize; STRATA] = [7, 0, 5, 2, 6, 1, 4, 3];
const SEARCH_POS: usize = 32 * 64;
/// Requests in one max-rate search step: the same four cycles at
/// every probed rate, so a step's verdict depends on the rate alone.
const SEARCH_REQUESTS: usize = 256;

/// The distinct requests (every application in every variant) and the
/// seeded order they are sent in.
struct Mix {
    /// `items[app * 3 + variant]`.
    items: Vec<Item>,
    /// Item index per order position: each cycle is a fresh seeded,
    /// size-interleaved permutation of the applications, a quarter of
    /// them with `comm` and an eighth with `mem_caps`.
    order: Vec<u32>,
    /// Per order position, where the request's due time falls within
    /// its slot, as a fraction of the spacing in [-0.5, 0.5). Seeded
    /// jitter spreads how long requests wait behind a large one over a
    /// continuum, so the latency quantiles do not sit on a step between
    /// two fixed slot positions.
    jitter: Vec<f64>,
}

impl Mix {
    fn item(&self, pos: usize) -> &Item {
        &self.items[self.order[pos % self.order.len()] as usize]
    }
}

fn item(app: usize, dag: Dag, variant: Variant, ws: &mut Workspace, rep: &mut Report) -> Item {
    let mut req = ScheduleRequest::new(0, DagSpec::from_dag(&dag));
    req.procs = Some(PROCS);
    let (schedule, check) = match variant {
        Variant::Plain => {
            let s = Fast::new().schedule_into(&dag, PROCS, ws);
            let c = validate_with(&CommModel::Ideal, &dag, &s);
            (s, c)
        }
        Variant::Comm => {
            req.comm = Some(CommSpec::AlphaBeta {
                alpha: AB.alpha,
                beta_num: AB.beta_num,
                beta_den: AB.beta_den,
            });
            let m = CommModel::AlphaBeta(AB);
            let s = Fast::new().schedule_with_model(&dag, PROCS, &m);
            let c = validate_with(&m, &dag, &s);
            (s, c)
        }
        Variant::Mem => {
            let cap = tight_cap(&dag, PROCS);
            req.mem_caps = Some(MemCapsSpec::Uniform(cap));
            let m = MemoryCapacities::uniform(CommModel::Ideal, cap, PROCS);
            let s = Fast::new().schedule_with_model(&dag, PROCS, &m);
            let c = validate_with(&m, &dag, &s);
            (s, c)
        }
    };
    if let Err(e) = check {
        rep.wrong(format!(
            "serve-apps app {app} ({variant:?}): local schedule invalid: {e}"
        ));
    }
    let line = req.to_line();
    let tail = line
        .strip_prefix("{\"op\":\"schedule\",\"id\":0,")
        .expect("schedule lines start with op and id")
        .to_string();
    let expect = format!(
        "\"makespan\":{},\"placements\":{},",
        schedule.makespan(),
        placements_json(&placements_of(&schedule))
    );
    Item {
        tail,
        dag,
        schedule,
        expect,
    }
}

fn mix(seed: u64, rep: &mut Report) -> Mix {
    let mut rng = SplitMix(seed ^ 0x5E7E);
    let mut ws = Workspace::new();
    let mut items = Vec::new();
    for (app, dag) in apps().into_iter().enumerate() {
        let with_mems = assign_mems(&dag, rng.next_u64());
        items.push(item(app, dag.clone(), Variant::Plain, &mut ws, rep));
        items.push(item(app, dag, Variant::Comm, &mut ws, rep));
        items.push(item(app, with_mems, Variant::Mem, &mut ws, rep));
    }
    // Size strata: the applications sorted by request size, cut into
    // eighths. Each block of eight positions takes one request from
    // every stratum, large and small alternating in a fixed pattern, so
    // the largest requests never arrive back to back and how often a
    // request queues behind a large one is the same in every run. The
    // seed picks which application of each stratum fills each block,
    // and which requests carry `comm` and `mem_caps`.
    let apps = items.len() / 3;
    let mut by_size: Vec<u32> = (0..apps as u32).collect();
    by_size.sort_by_key(|&a| items[a as usize * 3].tail.len());
    let mut strata: Vec<Vec<u32>> = by_size.chunks(apps / STRATA).map(<[u32]>::to_vec).collect();
    let mut variants: Vec<u32> = (0..apps)
        .map(|i| match i % 8 {
            0 | 1 => 1,
            2 => 2,
            _ => 0,
        })
        .collect();
    let mut order: Vec<u32> = Vec::with_capacity(CYCLES * apps);
    for _ in 0..CYCLES {
        for s in strata.iter_mut() {
            rng.shuffle(s);
        }
        rng.shuffle(&mut variants);
        let start = order.len();
        #[allow(clippy::needless_range_loop)] // `block` picks one app of every stratum
        for block in 0..apps / STRATA {
            for s in INTERLEAVE {
                let app = strata[s][block];
                order.push(app * 3 + variants[order.len() - start]);
            }
        }
    }
    let jitter = (0..order.len())
        .map(|_| rng.below(1 << 20) as f64 / f64::from(1 << 20) - 0.5)
        .collect();
    Mix {
        items,
        order,
        jitter,
    }
}

fn line(it: &Item, id: u64) -> String {
    format!("{{\"op\":\"schedule\",\"id\":{id},{}", it.tail)
}

/// Byte-level check of a response against the local run: `ok`, then
/// the exact makespan and placements bytes.
fn check(it: &Item, resp: &str) -> Result<(), String> {
    if !resp.contains("\"ok\":true") {
        return Err(match Response::parse(resp) {
            Ok(Response::Error { error, .. }) => error,
            _ => format!("not a schedule response: {:.120}", resp),
        });
    }
    if !resp.contains(&it.expect) {
        return Err(format!(
            "response differs from local scheduling (expected {:.80}...)",
            it.expect
        ));
    }
    Ok(())
}

/// A spawned `casch serve`, shut down and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: String,
    pub metrics_addr: String,
    log: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    pub fn start(casch: &str) -> Result<Server, String> {
        let mut child = Command::new(casch)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
            .args(["--metrics-addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {casch}: {e}"))?;
        let mut lines = BufReader::new(child.stderr.take().expect("piped stderr")).lines();
        let (mut addr, mut metrics_addr) = (None, None);
        while addr.is_none() {
            let Some(Ok(l)) = lines.next() else {
                let _ = child.kill();
                let _ = child.wait();
                return Err("casch serve exited before listening".to_string());
            };
            let word_after = |key: &str| {
                l.split(key)
                    .nth(1)
                    .and_then(|r| r.split_whitespace().next())
                    .map(str::to_string)
            };
            if l.contains("metrics on http://") {
                metrics_addr =
                    word_after("http://").map(|a| a.trim_end_matches("/metrics").to_string());
            } else if l.contains("listening on") {
                addr = word_after("listening on ");
            }
        }
        // Keep draining the server's stderr so it can never block on it.
        let log = std::thread::spawn(move || {
            for l in lines.map_while(Result::ok) {
                eprintln!("[casch serve] {l}");
            }
        });
        Ok(Server {
            child,
            addr: addr.unwrap_or_default(),
            metrics_addr: metrics_addr.unwrap_or_default(),
            log: Some(log),
        })
    }

    pub fn connect(&self) -> TcpStream {
        let s = TcpStream::connect(&self.addr).expect("connect to casch serve");
        s.set_nodelay(true).expect("nodelay");
        s
    }

    pub fn rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&self.child.id().to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let bye = Request::Shutdown { id: 0 }.to_line();
        if let Ok(mut s) = TcpStream::connect(&self.addr) {
            let _ = s.set_read_timeout(Some(Duration::from_secs(30)));
            let _ = writeln!(s, "{bye}");
            let _ = BufReader::new(s).read_line(&mut String::new());
        }
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(30) {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.log.take() {
            let _ = h.join();
        }
    }
}

struct Setup {
    mix: Mix,
    server: Server,
    stream: TcpStream,
    next_id: u64,
}

fn setup(seed: u64, casch: &str, rep: &mut Report) -> Result<Setup, String> {
    let mix = mix(seed, rep);
    let server = Server::start(casch)?;
    let stream = server.connect();
    // Warm-up: the first cycle of the order, one request at a time.
    let mut r = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut w = stream.try_clone().map_err(|e| e.to_string())?;
    let warm = mix.items.len() / 3;
    for pos in 0..warm {
        writeln!(w, "{}", line(mix.item(pos), pos as u64)).map_err(|e| e.to_string())?;
        let mut resp = String::new();
        r.read_line(&mut resp).map_err(|e| e.to_string())?;
        if let Err(e) = check(mix.item(pos), resp.trim_end()) {
            rep.wrong(format!("serve-apps warm-up request {pos}: {e}"));
        }
    }
    Ok(Setup {
        next_id: warm as u64,
        mix,
        server,
        stream,
    })
}

/// A server answer that refuses work under load rather than getting it
/// wrong.
fn is_refusal(error: &str) -> bool {
    error == "overloaded" || error == "timeout"
}

/// One open-loop run of `count` requests at `rate`, taken from the
/// order starting at position `pos`, and how many answers were wrong
/// (an error other than a refusal, or a response that differs from
/// local scheduling).
fn drive(st: &mut Setup, rate: f64, count: usize, pos: usize, tr: &Tracer) -> (Outcome, usize) {
    let first = st.next_id;
    let mix = &st.mix;
    let at = |id: u64| pos + (id - first) as usize;
    let item = |id: u64| mix.item(at(id));
    let wrong = AtomicUsize::new(0);
    let out = openloop::run(
        &st.stream,
        first,
        count,
        &|id| ((id - first) as f64 + 0.5 + mix.jitter[at(id) % mix.jitter.len()]) / rate,
        &|id| line(item(id), id),
        &|id, resp| {
            let verdict = check(item(id), resp);
            if verdict.as_ref().is_err_and(|e| !is_refusal(e)) {
                wrong.fetch_add(1, Ordering::Relaxed);
            }
            verdict
        },
        DRAIN,
        None,
        tr,
    );
    st.next_id += count as u64;
    (out, wrong.into_inner())
}

/// Requests in `secs` seconds at `rate`.
fn count_for(rate: f64, secs: f64) -> usize {
    (rate * secs).round().max(1.0) as usize
}

/// Count a run into the report. Wrong answers always fail the run;
/// refusals and unanswered requests count as failed operations only
/// when `refusals_fail` (not in the max-rate search, which looks for
/// the rate where they start).
fn account((out, wrong): &(Outcome, usize), what: &str, refusals_fail: bool, rep: &mut Report) {
    let failed = if refusals_fail { out.failed } else { *wrong };
    rep.count((out.ok + out.failed) as u64, failed as u64);
    if *wrong > 0 {
        rep.wrong(format!(
            "serve-apps {what}: {wrong} wrong answer(s): {:?}",
            out.errors
        ));
    } else if failed > 0 {
        rep.notes.push(format!(
            "serve-apps {what}: {failed} failed: {:?}",
            out.errors
        ));
    }
}

/// A search step's verdict: whether it held (every request answered
/// correctly, p99 within the ceiling, and the backlog not growing by
/// more than [`GROWTH_MS`] across the step, judged by the least-squares
/// trend of latency over the requests), with its p99 and growth.
fn step_verdict(out: &Outcome) -> (bool, f64, f64) {
    let lat = &out.latency_ms;
    if out.failed > 0 || lat.len() < 8 {
        return (false, f64::NAN, f64::NAN);
    }
    let p99 = quantile(lat, 0.99);
    let index: Vec<f64> = (0..lat.len()).map(|i| i as f64).collect();
    let growth = slope(&index, lat).unwrap_or(f64::NAN) * lat.len() as f64;
    (p99 <= P99_CEILING_MS && growth <= GROWTH_MS, p99, growth)
}

/// Highest offered rate that holds, searched upward from 1.5 × `RATE`
/// in ×1.25 steps, then refined by bisection to within 6 %. Every step
/// replays the same [`SEARCH_REQUESTS`] requests.
fn max_rate(st: &mut Setup, rep: &mut Report) -> f64 {
    let (mut lo, mut hi) = (RATE, None);
    let mut steps = Vec::new();
    let mut r = RATE * 1.5;
    for _ in 0..12 {
        let run = drive(st, r, SEARCH_REQUESTS, SEARCH_POS, &Tracer::new(false));
        let (holds, p99, growth) = step_verdict(&run.0);
        steps.push(format!(
            "{r:.1}(p99 {p99:.0} ms, growth {growth:.0} ms):{}",
            if holds { "ok" } else { "no" }
        ));
        account(&run, "max-rate step", false, rep);
        if holds {
            lo = r;
        } else {
            hi = Some(r);
        }
        match hi {
            None => r *= 1.25,
            Some(h) if h / lo > 1.06 => r = (lo + h) / 2.0,
            Some(_) => break,
        }
    }
    rep.notes.push(format!(
        "serve-apps max-rate steps (req/s): {}",
        steps.join(" ")
    ));
    lo
}

pub fn run(seed: u64, secs: f64, casch: &str, rep: &mut Report) -> Result<(), String> {
    let mut warm = Report::new();
    let (setup_s, st) = median_setup(|| setup(seed, casch, &mut warm));
    let mut st = st?;
    rep.notes.append(&mut warm.notes);
    rep.correct &= warm.correct;
    let sent = count_for(RATE, secs);
    let run = drive(&mut st, RATE, sent, 0, &Tracer::new(false));
    account(&run, "fixed rate", true, rep);
    let out = run.0;
    let lat = &out.latency_ms;
    rep.metric("sched_per_s", out.ok as f64 / out.wall_s, "1/s");
    rep.quantile("latency_p50_ms", lat, 0.5, "ms");
    rep.quantile("latency_p99_ms", lat, 0.99, "ms");
    let lag_p99 = quantile(&out.lag_ms, 0.99);
    let rate = max_rate(&mut st, rep);
    rep.metric("max_rate_rps", rate, "req/s");
    let sum: u64 = (0..sent)
        .map(|pos| st.mix.item(pos).schedule.makespan())
        .sum();
    rep.metric("makespan_sum", sum as f64, "units");
    rep.metric("ok_share", out.ok as f64 / sent as f64, "ratio");
    rep.metric("setup_s", setup_s, "s");
    rep.metric("peak_rss_mb", st.server.rss_mb().unwrap_or(f64::NAN), "MB");
    rep.notes.push(format!(
        "serve-apps: {sent} requests at {RATE} req/s, {} failed, generator lag p99 {lag_p99:.3} ms",
        out.failed
    ));
    Ok(())
}

/// Tracing overhead on the end-to-end figure: client p50 at the fixed
/// rate with spans on against spans off.
pub fn overhead(seed: u64, secs: f64, casch: &str, rep: &mut Report) -> Result<(), String> {
    let mut st = setup(seed, casch, rep)?;
    let (off, on) = (Tracer::new(false), Tracer::new(true));
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let n = count_for(RATE, secs / 4.0);
    // Alternate stretches over the same requests so drift and mix hit
    // both sides alike.
    for _ in 0..2 {
        for (tr, lat) in [(&off, &mut plain), (&on, &mut traced)] {
            let run = drive(&mut st, RATE, n, 0, tr);
            account(&run, "overhead run", true, rep);
            lat.extend(run.0.latency_ms);
        }
    }
    crate::report_overhead(
        rep,
        "serve-apps client p50",
        median(&plain),
        median(&traced),
    );
    Ok(())
}

/// Request-path layers: in-process parse, DAG build and render of the
/// same request lines, the server's own phase histograms after a
/// fixed-rate run, and the load generator's lag.
pub fn layers(seed: u64, secs: f64, casch: &str, rep: &mut Report) -> Result<Vec<Span>, String> {
    let mut st = setup(seed, casch, rep)?;
    let tr = Tracer::new(true);
    let t0 = Instant::now();
    let cycle = st.mix.items.len() / 3;
    let mut pos = 0;
    while pos < 3 * cycle || t0.elapsed().as_secs_f64() < secs * 0.3 {
        let it = st.mix.item(pos);
        let req = pos as u64;
        let text = line(it, req);
        let parsed = tr.span("casch.parse", None, req, || Request::parse(&text, 1));
        let Ok(Request::Schedule(sr)) = parsed else {
            rep.wrong(format!(
                "serve-apps position {pos}: request line does not parse back"
            ));
            continue;
        };
        let built = tr.span("dag.build", None, req, || sr.dag.build());
        if built.map(|d| d.edge_count()).ok() != Some(it.dag.edge_count()) {
            rep.wrong(format!("serve-apps position {pos}: rebuilt DAG differs"));
        }
        let out = tr.span("casch.render", None, req, || {
            let r = ScheduleResponse::from_schedule(req, "FAST", PROCS, &it.schedule, 0, 0);
            Response::Schedule(r).to_line()
        });
        if !out.contains(&it.expect) {
            rep.wrong(format!(
                "serve-apps position {pos}: rendered response differs"
            ));
        }
        pos += 1;
    }
    let run = drive(&mut st, RATE, count_for(RATE, secs * 0.7), 0, &tr);
    account(&run, "traced run", true, rep);
    let out = run.0;
    let spans = tr.take();
    let all = |_| true;
    let parse = durations(&spans, "casch.parse", all);
    let build = median(&durations(&spans, "dag.build", all));
    let render = median(&durations(&spans, "casch.render", all));
    let parse_p50 = median(&parse);
    rep.quantile("casch.parse_ms.p50", &parse, 0.5, "ms");
    rep.quantile("casch.parse_ms.p99", &parse, 0.99, "ms");
    rep.metric("dag.build_ms.p50", build, "ms");
    rep.metric("casch.render_ms.p50", render, "ms");

    let body = scrape_metrics(&st.server.metrics_addr, "/metrics.json", 5.0)?;
    let Ok(Response::Stats(stats)) = Response::parse(body.trim()) else {
        return Err(format!("unexpected /metrics.json body: {:.200}", body));
    };
    let mut server_sum = 0.0;
    for phase in ["queue", "schedule", "serialize", "write"] {
        let p = stats
            .phases
            .iter()
            .find(|p| p.phase == phase)
            .ok_or_else(|| format!("/metrics.json has no `{phase}` phase"))?;
        let ms = p.p50_us as f64 / 1e3;
        server_sum += ms;
        rep.percentile(format!("serve.{phase}_ms.p50"), ms, "ms", p.count as usize);
    }
    let client = median(&out.latency_ms);
    rep.quantile("driver.gen_lag_ms.p99", &out.lag_ms, 0.99, "ms");
    rep.quantile("serve.client_ms.p50", &out.latency_ms, 0.5, "ms");
    rep.metric(
        "serve.unexplained_ms",
        client - (parse_p50 + build + server_sum),
        "ms",
    );
    rep.notes.push(format!(
        "serve-apps layers: {pos} in-process request lines; {} requests at {RATE} req/s",
        out.latency_ms.len()
    ));
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_seeded_stratified_and_mixed_as_specified() {
        let mut rep = Report::new();
        let m = mix(7, &mut rep);
        assert!(rep.correct, "{:?}", rep.notes);
        let apps = m.items.len() / 3;
        assert_eq!((apps, m.order.len()), (64, CYCLES * 64));
        let size = |i: u32| m.items[i as usize / 3 * 3].tail.len();
        let mut sizes: Vec<usize> = (0..apps).map(|a| m.items[a * 3].tail.len()).collect();
        sizes.sort_unstable();
        let top_min = sizes[apps - apps / STRATA];
        for cycle in m.order.chunks(apps) {
            let mut seen: Vec<u32> = cycle.iter().map(|i| i / 3).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), apps, "every application once per cycle");
            let variant = |v| cycle.iter().filter(|&&i| i % 3 == v).count();
            assert_eq!(
                (variant(1), variant(2)),
                (16, 8),
                "a quarter comm, an eighth mem"
            );
        }
        for w in m.order.windows(2) {
            assert!(
                size(w[0]) < top_min || size(w[1]) < top_min,
                "largest requests back to back"
            );
        }
        assert_eq!(mix(7, &mut rep).order, m.order, "same seed, same order");
        assert_ne!(mix(8, &mut rep).order, m.order);
    }
}
