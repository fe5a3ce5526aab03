//! Seeded request generators for the workloads.
//!
//! A job is one HTTP request. Its id fixes it completely: the same seed and
//! id give the same body, so the in-process replay can rebuild any request
//! the load loop sent. Binding values come from a per-family running index,
//! so no two requests of one run share a cache key.

use std::sync::OnceLock;

use bayonet_num::Rat;
use bayonet_serve::Json;

const GOSSIP: &str = include_str!("../programs/gossip_k4_sweep.bay");
const ECMP: &str = include_str!("../programs/ecmp_costs.bay");
const LOSSY: &str = include_str!("../programs/lossy_link.bay");
const FATTREE: &str = include_str!("../programs/fattree_k4.bay");

/// Grid points per sweep and items per batch.
pub const GROUP: usize = 16;

/// The programs requests are drawn from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Prog {
    GossipUniform,
    GossipRoundRobin,
    GossipRotor,
    Ecmp,
    Lossy,
    Fattree,
}

impl Prog {
    const ALL: [Prog; 6] = [
        Prog::GossipUniform,
        Prog::GossipRoundRobin,
        Prog::GossipRotor,
        Prog::Ecmp,
        Prog::Lossy,
        Prog::Fattree,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Prog::GossipUniform => "gossip_uniform",
            Prog::GossipRoundRobin => "gossip_roundrobin",
            Prog::GossipRotor => "gossip_rotor",
            Prog::Ecmp => "ecmp",
            Prog::Lossy => "lossy",
            Prog::Fattree => "fattree",
        }
    }

    /// The program text. Gossip gets a `scheduler` line inserted before
    /// its `init` block.
    pub fn source(self) -> &'static str {
        static SOURCES: OnceLock<Vec<String>> = OnceLock::new();
        let sources = SOURCES.get_or_init(|| {
            Prog::ALL
                .iter()
                .map(|p| match p {
                    Prog::Ecmp => ECMP.to_string(),
                    Prog::Lossy => LOSSY.to_string(),
                    Prog::Fattree => FATTREE.to_string(),
                    gossip => GOSSIP.replacen(
                        "\ninit {",
                        &format!("\nscheduler {};\ninit {{", gossip.scheduler()),
                        1,
                    ),
                })
                .collect()
        });
        &sources[Prog::ALL.iter().position(|p| *p == self).expect("listed")]
    }

    /// The scheduler the program runs under.
    pub fn scheduler(self) -> &'static str {
        match self {
            Prog::GossipRoundRobin => "roundrobin",
            Prog::GossipRotor => "rotor",
            _ => "uniform",
        }
    }

    /// The parameter every request binds (or sweeps).
    pub fn param(self) -> &'static str {
        match self {
            Prog::Ecmp => "COST_01",
            Prog::Lossy | Prog::Fattree => "P_LOSS",
            _ => "K",
        }
    }

    /// The `index`-th distinct value of [`Prog::param`]: thresholds and
    /// costs in (0, 4), loss probabilities in (0, 1).
    fn value(self, index: u64) -> Rat {
        let den = match self {
            Prog::Lossy | Prog::Fattree => 100_003,
            _ => 10_000,
        };
        Rat::ratio(1 + (index % self.distinct_values()) as i64, den)
    }

    /// How many distinct values [`Prog::value`] yields before repeating.
    fn distinct_values(self) -> u64 {
        match self {
            Prog::Lossy | Prog::Fattree => 100_002,
            _ => 39_999,
        }
    }
}

/// One inference posterior's inputs: the bindings and the engine choice.
#[derive(Clone, Debug)]
pub struct Item {
    pub bindings: Vec<(String, Rat)>,
    pub auto: bool,
}

/// What a job asks for, in the form the replay consumes.
#[derive(Clone, Debug)]
pub enum Work {
    Run(Prog, Item),
    Batch(Prog, Vec<Item>),
    Sweep {
        prog: Prog,
        fixed: Vec<(String, Rat)>,
        values: Vec<Rat>,
        /// The sharing route the server is expected to take.
        route: &'static str,
    },
}

/// One HTTP request.
#[derive(Clone, Debug)]
pub struct Job {
    pub id: usize,
    pub path: &'static str,
    pub body: String,
    pub work: Work,
}

impl Job {
    /// Posteriors the request answers.
    pub fn items(&self) -> usize {
        match &self.work {
            Work::Run(..) => 1,
            Work::Batch(_, items) => items.len(),
            Work::Sweep { values, .. } => values.len(),
        }
    }
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    RunCold,
    SweepBatch,
}

/// Cached requests the router probe sends: the first two whole `run_cold`
/// cycles, which fit the server's 128-entry LRU.
pub const PROBE_SET: usize = 2 * COLD_CYCLE;

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "run_cold" => Some(Workload::RunCold),
            "sweep_batch" => Some(Workload::SweepBatch),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::RunCold => "run_cold",
            Workload::SweepBatch => "sweep_batch",
        }
    }

    /// The leading jobs whose exact work counters the benchmark reports:
    /// a fixed set, so the counters do not depend on how many requests a
    /// timed run managed to send.
    pub fn counted_jobs(self) -> usize {
        match self {
            Workload::RunCold => 2 * COLD_CYCLE,
            Workload::SweepBatch => 32,
        }
    }

    /// The leading jobs the traced pass replays with spans, the diagram
    /// engine and an in-process service; the rest are replayed only to
    /// check their answers. A fixed count keeps the traced pass's length
    /// independent of the window's.
    pub fn traced_jobs(self) -> usize {
        match self {
            Workload::RunCold => 8 * COLD_CYCLE,
            Workload::SweepBatch => 64,
        }
    }

    /// The `id`-th request of this workload's stream.
    pub fn job(self, seed: u64, id: usize) -> Job {
        match self {
            Workload::RunCold => cold_job(seed, id),
            Workload::SweepBatch => sweep_batch_job(seed, id),
        }
    }
}

/// SplitMix64 finalizer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A small seeded generator (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// The distinct binding value for running index `index` of `prog`. Fails
/// loudly rather than repeat a value, which would turn a miss into a hit.
fn binding(seed: u64, prog: Prog, index: u64) -> (String, Rat) {
    assert!(
        index < prog.distinct_values(),
        "request stream ran past {} distinct {} values",
        prog.distinct_values(),
        prog.param()
    );
    let offset = mix(seed ^ prog as u64) % prog.distinct_values();
    (prog.param().to_string(), prog.value(offset + index))
}

fn bindings_json(bindings: &[(String, Rat)]) -> Json {
    Json::Obj(
        bindings
            .iter()
            .map(|(name, value)| (name.clone(), Json::Str(value.to_string())))
            .collect(),
    )
}

fn engine_json(auto: bool) -> Json {
    Json::Str(if auto { "auto" } else { "exact" }.into())
}

/// `run_cold`'s mix, one cycle: each program's share, half of each with
/// `"engine": "auto"` and half with `"engine": "exact"`. Latencies form
/// clusters by program; as many lossy requests as gossip and ecmp together
/// put the median in the middle of fattree's cluster and the 90th
/// percentile in the middle of ecmp's, not on a gap between two clusters
/// where they would jump from run to run.
const COLD_MIX: [(Prog, usize); 6] = [
    (Prog::Lossy, 10),
    (Prog::Fattree, 8),
    (Prog::GossipUniform, 2),
    (Prog::GossipRoundRobin, 2),
    (Prog::GossipRotor, 2),
    (Prog::Ecmp, 4),
];

/// Requests per `run_cold` cycle.
pub const COLD_CYCLE: usize = 28;

/// `run_cold`: every [`COLD_CYCLE`] consecutive requests hold exactly
/// [`COLD_MIX`], in a seeded order, so throughput and percentiles do not
/// drift with the seed's draw of programs.
fn cold_job(seed: u64, id: usize) -> Job {
    let slots: Vec<(Prog, bool)> = COLD_MIX
        .iter()
        .flat_map(|&(prog, n)| (0..n).map(move |i| (prog, i % 2 == 0)))
        .collect();
    debug_assert_eq!(slots.len(), COLD_CYCLE);
    let cycle = id / COLD_CYCLE;
    let slot = Rng::new(seed ^ mix(cycle as u64)).permutation(COLD_CYCLE)[id % COLD_CYCLE];
    let (prog, auto) = slots[slot];
    let item = Item {
        bindings: vec![binding(seed, prog, id as u64)],
        auto,
    };
    let body = Json::obj(vec![
        ("source", Json::Str(prog.source().into())),
        ("engine", engine_json(item.auto)),
        ("bindings", bindings_json(&item.bindings)),
    ])
    .to_string();
    Job {
        id,
        path: "/v1/run",
        body,
        work: Work::Run(prog, item),
    }
}

/// `sweep_batch`'s sweeps, in each client's order.
const SWEEPS: [(Prog, &str); 4] = [
    (Prog::GossipUniform, "symbolic"),
    (Prog::GossipUniform, "symbolic"),
    (Prog::Fattree, "prefix"),
    (Prog::Ecmp, "symbolic"),
];

/// `sweep_batch`'s batch sources, in each client's order.
const BATCHES: [Prog; 4] = [
    Prog::GossipRoundRobin,
    Prog::GossipRoundRobin,
    Prog::GossipRoundRobin,
    Prog::GossipRotor,
];

/// `sweep_batch`: client `id % 2` alternates sweeps and batches. Sweeps
/// are gossip K (symbolic route) twice, fattree P_LOSS (prefix route) and
/// ecmp COST_01 with the other two costs bound (symbolic route); batches
/// are gossip under roundrobin three times and rotor once, half their
/// items `auto`. With these shares the median falls inside the roundrobin
/// batches' latencies and the 90th percentile inside the gossip sweeps'.
fn sweep_batch_job(seed: u64, id: usize) -> Job {
    let client = id % 2;
    let turn = id / 2;
    let base = (id * GROUP) as u64;
    if turn.is_multiple_of(2) {
        let (prog, route) = SWEEPS[(turn / 2 + client) % SWEEPS.len()];
        let fixed: Vec<(String, Rat)> = if prog == Prog::Ecmp {
            vec![
                ("COST_02".to_string(), Rat::ratio(1, 1)),
                ("COST_21".to_string(), Rat::ratio(1, 1)),
            ]
        } else {
            Vec::new()
        };
        let values: Vec<Rat> = (0..GROUP as u64)
            .map(|p| binding(seed, prog, base + p).1)
            .collect();
        // The short sweeps lease a second pool worker when one is free.
        // The gossip sweeps stay on one, so their latency, which sets the
        // 90th percentile, does not depend on whether a lease succeeded.
        let threads = if prog == Prog::GossipUniform {
            1.0
        } else {
            2.0
        };
        let grid = Json::Obj(vec![(
            prog.param().to_string(),
            Json::Arr(values.iter().map(|v| Json::Str(v.to_string())).collect()),
        )]);
        let body = Json::obj(vec![
            ("source", Json::Str(prog.source().into())),
            ("sweep", grid),
            ("bindings", bindings_json(&fixed)),
            ("threads", Json::Num(threads)),
        ])
        .to_string();
        Job {
            id,
            path: "/v1/sweep",
            body,
            work: Work::Sweep {
                prog,
                fixed,
                values,
                route,
            },
        }
    } else {
        let prog = BATCHES[(turn / 2 + client) % BATCHES.len()];
        let items: Vec<Item> = (0..GROUP as u64)
            .map(|i| Item {
                bindings: vec![binding(seed, prog, base + i)],
                auto: i % 2 == 0,
            })
            .collect();
        let items_json = items
            .iter()
            .map(|item| {
                Json::obj(vec![
                    ("engine", engine_json(item.auto)),
                    ("bindings", bindings_json(&item.bindings)),
                ])
            })
            .collect();
        let body = Json::obj(vec![
            ("source", Json::Str(prog.source().into())),
            ("items", Json::Arr(items_json)),
        ])
        .to_string();
        Job {
            id,
            path: "/v1/batch",
            body,
            work: Work::Batch(prog, items),
        }
    }
}
