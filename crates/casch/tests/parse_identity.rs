//! The JSON parser must keep producing the exact `Value` trees it
//! always has. The digests below were taken with the original
//! character-at-a-time parser (before string runs were copied whole
//! and nesting was capped), over the checked-in fixtures and over every
//! request line of the benchmark's serve-apps mix.

use fastsched_casch::protocol::{CommSpec, Request, ScheduleRequest};
use fastsched_dag::io::{self, DagSpec};
use fastsched_dag::Dag;
use fastsched_schedule::MemCapsSpec;
use fastsched_workloads::fuzz::assign_mems;
use fastsched_workloads::{fft_dag, gaussian_elimination_dag, laplace_dag, TimingDatabase};
use serde::Value;

/// FNV-1a over the compact rendering of `text`'s parse tree. The
/// writer is a function of the tree alone, so equal digests mean
/// equal trees.
fn digest(text: &str) -> u64 {
    let v: Value = serde_json::from_str(text).expect("parses");
    let compact = serde_json::to_string(&v).expect("renders");
    compact.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn fixtures_parse_to_the_recorded_trees() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/fixtures");
    let expected = [
        ("fft8.json", 5330611774056486938),
        ("gauss5.json", 7785435284623721214),
        ("random40.json", 2715404866845807585),
    ];
    for (name, want) in expected {
        let text = std::fs::read_to_string(format!("{dir}/{name}")).expect("read fixture");
        assert_eq!(digest(&text), want, "{name}");
        io::from_json(&text).expect("fixture builds");
    }
}

/// splitmix64, seeded as the serve-apps benchmark seeds its mix.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The serve-apps request lines for benchmark seed 1: the paper's 64
/// applications on 16 processors, each plain, with α–β `comm`, and
/// with seeded footprints under a uniform `mem_caps`.
fn serve_apps_lines() -> Vec<ScheduleRequest> {
    const PROCS: u32 = 16;
    let db = TimingDatabase::paragon();
    let mut dags: Vec<Dag> = (4..=32).map(|n| gaussian_elimination_dag(n, &db)).collect();
    dags.extend((4..=32).map(|n| laplace_dag(n, &db)));
    dags.extend([16, 32, 64, 128, 256, 512].map(|p| fft_dag(p, &db)));
    let mut rng = SplitMix(1 ^ 0x5E7E);
    let mut out = Vec::new();
    for dag in dags {
        let with_mems = assign_mems(&dag, rng.next_u64());
        let mut plain = ScheduleRequest::new(0, DagSpec::from_dag(&dag));
        plain.procs = Some(PROCS);
        let mut comm = plain.clone();
        comm.comm = Some(CommSpec::AlphaBeta {
            alpha: 25,
            beta_num: 3,
            beta_den: 2,
        });
        let mut mem = ScheduleRequest::new(0, DagSpec::from_dag(&with_mems));
        mem.procs = Some(PROCS);
        let max_mem = with_mems.mems().iter().copied().max().unwrap_or(0);
        let cap = 2 * with_mems
            .total_memory()
            .div_ceil(u64::from(PROCS))
            .max(max_mem);
        mem.mem_caps = Some(MemCapsSpec::Uniform(cap));
        out.extend([plain, comm, mem]);
    }
    out
}

#[test]
fn serve_apps_requests_parse_to_the_recorded_trees() {
    let reqs = serve_apps_lines();
    assert_eq!(reqs.len(), 192);
    let mut all = 0u64;
    for req in reqs {
        let line = req.to_line();
        all = all.rotate_left(5) ^ digest(&line);
        assert_eq!(Request::parse(&line, 1), Ok(Request::Schedule(req)));
    }
    assert_eq!(all, 17875602167153844169);
}
