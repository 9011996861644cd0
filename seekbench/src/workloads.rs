//! The three workloads and the sizes they run at.
//!
//! Every workload runs the same lifecycle (see `lifecycle.rs`): build the
//! inputs, train an attack, infer, then serve a live session over loopback.
//! They differ in which stage is heavy and which stage fills the measured
//! window (`--seconds`):
//!
//! - `train-paper` trains the paper-experiment attack on the synth-gowalla
//!   preset; repeated training fills the window.
//! - `infer-scale` attacks sparse scale worlds shard by shard; repeated
//!   inference passes fill the window.
//! - `serve-1k` serves a 1k-user world; the open-loop read and mixed phases
//!   run for their full length, and repeated bulk-ingest rounds fill the
//!   rest of the window.

use friendseeker::FriendSeekerConfig;
use seeker_trace::synth::SyntheticConfig;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["train-paper", "infer-scale", "serve-1k"];

/// The pinned 1k-user world every workload serves. The served world is
/// fixed so that serving metrics move with the code, not with the world;
/// the workload seed draws the traffic: the order in which check-ins
/// stream in, and which pairs are queried.
pub const SERVE_WORLD_SEED: u64 = 1_000_003;

/// Where the attack is trained.
#[derive(Debug, Clone)]
pub enum TrainSpec {
    /// The paper-experiment configuration, capped at `epochs`.
    Paper { epochs: usize, max_iterations: Option<usize> },
    /// The pinned setup model ([`SetupModel`]).
    Pinned,
}

/// The worlds the attack is run against.
#[derive(Debug, Clone)]
pub enum TargetSpec {
    /// The experiment harness's synth-gowalla world
    /// ([`seeker_bench::DEFAULT_SEED`]), split 70/30: the attack trains on
    /// the 70 % and is run on the balanced evaluation pairs of the 30 %.
    PaperSplit,
    /// `count` independent sparse scale worlds of `users` users each, drawn
    /// from the workload seed, attacked by `infer_sharded` with
    /// `max(4, users / 500)` shards.
    Scale { users: usize, count: usize },
    /// The served world, attacked by `infer_sharded`; quality is scored on
    /// the served graph after the whole stream was ingested.
    Served,
}

/// Which stage repeats until the measured window is spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Focus {
    Train,
    Infer,
    Serve,
}

/// The pinned `scale()` setup model: trained on a `users`-user world spread
/// over the region of a `region_users`-user scale world. Phase-2 inference
/// cost depends steeply on how dense a graph the model predicts, and models
/// trained on other worlds differ by an order of magnitude, so the model is
/// fixed and the workload seed varies what it is run on.
#[derive(Debug, Clone, Copy)]
pub struct SetupModel {
    pub users: usize,
    pub region_users: usize,
}

impl SetupModel {
    /// Training-world seed of the setup model.
    pub const SEED: u64 = 3;

    /// The training world's generator configuration.
    pub fn world(self) -> SyntheticConfig {
        let mut cfg = SyntheticConfig::scale(self.users, Self::SEED);
        cfg.region_extent_km =
            SyntheticConfig::scale(self.region_users, Self::SEED).region_extent_km;
        cfg.n_cities = 24;
        cfg
    }
}

/// One workload, fully sized.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub train: TrainSpec,
    pub targets: TargetSpec,
    pub focus: Focus,
    /// The model that serves (and, for the scale workloads, is trained).
    pub setup_model: SetupModel,
    /// Users of the served world.
    pub serve_users: usize,
    /// Read-phase and mixed-phase lengths in seconds: in the traced run,
    /// and in `serve-1k`'s untraced run. The other untraced runs shorten
    /// both to [`BRIEF_PHASE_S`], since no bounded metric comes from them.
    pub read_s: f64,
    pub mixed_s: f64,
}

/// Check-ins per frame in the mixed phase.
pub const MIXED_FRAME: usize = 10;
/// Check-ins per frame in the bulk phase.
pub const BULK_FRAME: usize = 1_000;
/// Share of the served world's in-span check-ins held back and streamed.
pub const TAIL_SHARE: f64 = 0.3;
/// Open-loop `query_pair` rate of the query connection, per second.
pub const QUERY_RATE: f64 = 1_000.0;
/// Open-loop frame rate of the write connection in the mixed phase, per
/// second. A 10-check-in flush of the served session costs 10–30 ms, so
/// the engine thread stays well under half busy.
pub const WRITE_RATE: f64 = 8.0;
/// Read-phase and mixed-phase length of an untraced run whose focus is not
/// serving, in seconds.
pub const BRIEF_PHASE_S: f64 = 0.5;
/// How long the bulk rounds repeat in an untraced run whose focus is not
/// serving, in seconds.
pub const BULK_FLOOR_S: f64 = 2.0;

impl Spec {
    /// The named workload; `smoke` shrinks every size so a run takes
    /// seconds.
    pub fn named(name: &str, smoke: bool) -> Option<Spec> {
        let setup_model = if smoke {
            SetupModel { users: 120, region_users: 1_000 }
        } else {
            SetupModel { users: 300, region_users: 10_000 }
        };
        let (train, targets, focus) = match name {
            "train-paper" => (
                TrainSpec::Paper {
                    epochs: if smoke { 1 } else { 2 },
                    max_iterations: smoke.then_some(1),
                },
                TargetSpec::PaperSplit,
                Focus::Train,
            ),
            "infer-scale" => (
                TrainSpec::Pinned,
                TargetSpec::Scale {
                    users: if smoke { 1_000 } else { 10_000 },
                    count: if smoke { 2 } else { 3 },
                },
                Focus::Infer,
            ),
            "serve-1k" => (TrainSpec::Pinned, TargetSpec::Served, Focus::Serve),
            _ => return None,
        };
        let name = NAMES.into_iter().find(|n| *n == name)?;
        Some(Spec {
            name,
            train,
            targets,
            focus,
            setup_model,
            serve_users: if smoke { 300 } else { 1_000 },
            read_s: if smoke { 0.3 } else { 2.5 },
            mixed_s: if smoke { 0.5 } else { 3.0 },
        })
    }

    /// The attack configuration this workload trains with.
    pub fn attack_config(&self) -> FriendSeekerConfig {
        match self.train {
            TrainSpec::Paper { epochs, max_iterations } => {
                let mut cfg = seeker_bench::harness::default_config();
                cfg.epochs = epochs;
                if let Some(m) = max_iterations {
                    cfg.max_iterations = m;
                }
                cfg
            }
            TrainSpec::Pinned => FriendSeekerConfig::scale(),
        }
    }

    /// Shard count for a target world of `users` users (`bench_scale`'s
    /// policy).
    pub fn shards(users: usize) -> usize {
        (users / 500).max(4)
    }
}

/// Seed of the `i`-th derived input of a run (a world, a traffic stream):
/// distinct per role and index, determined by the workload seed alone.
pub fn derived_seed(seed: u64, role: u64, i: u64) -> u64 {
    let mut z = seed ^ (role << 32) ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
