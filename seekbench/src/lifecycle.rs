//! The lifecycle every workload runs: set up, train, infer, serve, then
//! repeat inference and training until the window is spent.
//!
//! Only the top-level entry points are called here —
//! `FriendSeeker::train`, `TrainedAttack::{infer_pairs, infer_sharded}`,
//! `IncrementalAttack::new` and `seeker_serve::{Server, Client}` — so a
//! change below them never needs an edit to this file.

use std::time::{Duration, Instant};

use friendseeker::persist::{fnv1a, save};
use friendseeker::{FriendSeeker, FriendSeekerConfig, IncrementalAttack, IncrementalOptions};
use friendseeker::{InferenceResult, TrainedAttack};
use seeker_bench::datasets::{world, Preset};
use seeker_graph::SocialGraph;
use seeker_serve::{Client, ServeConfig, Server};
use seeker_trace::synth::{generate, SyntheticConfig};
use seeker_trace::{CheckIn, Dataset, UserId, UserPair};

use crate::loadgen::{self, PairStream, PhaseStats, Schedule, SplitMix, Writes};
use crate::quality::{digest, digest_graphs, Quality};
use crate::workloads::{derived_seed, Focus, Spec, TargetSpec, TrainSpec, SERVE_WORLD_SEED};
use crate::workloads::{BRIEF_PHASE_S, BULK_FLOOR_S, BULK_FRAME, MIXED_FRAME, QUERY_RATE};
use crate::workloads::{TAIL_SHARE, WRITE_RATE};

pub type Fallible<T> = Result<T, String>;

/// Stage boundaries, reported to a [`Probe`] as the lifecycle passes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Train,
    Infer,
    Serve,
    End,
}

/// Observes stage boundaries; the traced run snapshots its sink there.
pub trait Probe {
    fn enter(&mut self, stage: Stage);
}

/// The untraced run's probe.
pub struct NoProbe;

impl Probe for NoProbe {
    fn enter(&mut self, _: Stage) {}
}

/// Everything a workload generates.
pub struct Inputs {
    /// The world the measured attack trains on.
    pub train: Dataset,
    /// The setup model's training world (the serving model's POI table).
    pub setup_train: Dataset,
    pub targets: Vec<Dataset>,
    /// The balanced evaluation pairs of the single target, when the
    /// workload is attacked on them.
    pub eval_pairs: Option<Vec<UserPair>>,
    pub serve_world: Dataset,
}

fn gen(cfg: &SyntheticConfig) -> Fallible<Dataset> {
    generate(cfg).map(|t| t.dataset).map_err(|e| e.to_string())
}

/// Builds the inputs of `spec` for `seed`.
pub fn build_inputs(spec: &Spec, seed: u64) -> Fallible<Inputs> {
    let setup_train = gen(&spec.setup_model.world())?;
    let serve_world = gen(&SyntheticConfig::scale(spec.serve_users, SERVE_WORLD_SEED))?;
    let (train, targets, eval_pairs) = match spec.targets {
        TargetSpec::PaperSplit => {
            let w = world(Preset::Gowalla, seeker_bench::DEFAULT_SEED);
            let (pairs, _) = seeker_bench::harness::eval_pairs(&w.target);
            (w.train, vec![w.target], Some(pairs))
        }
        TargetSpec::Scale { users, count } => {
            let targets = (0..count as u64)
                .map(|i| gen(&SyntheticConfig::scale(users, derived_seed(seed, 1, i))))
                .collect::<Fallible<Vec<_>>>()?;
            (setup_train.clone(), targets, None)
        }
        TargetSpec::Served => (setup_train.clone(), vec![serve_world.clone()], None),
    };
    Ok(Inputs { train, setup_train, targets, eval_pairs, serve_world })
}

/// The served world cut into the session's initial dataset and the
/// streamed tail. The tail is the latest share of the check-ins inside the
/// trained observation span, so every seed opens the same session; the
/// seed draws the order in which the tail arrives.
pub struct ServeSplit {
    pub initial: Dataset,
    pub tail: Vec<CheckIn>,
}

pub fn split_serve(attack: &TrainedAttack, world: &Dataset, seed: u64) -> Fallible<ServeSplit> {
    let slots = attack.phase1().division().slots();
    let (mut in_span, mut head): (Vec<CheckIn>, Vec<CheckIn>) =
        world.checkins().iter().partition(|c| slots.slot_of(c.time).is_some());
    in_span.sort_by_key(|c| (c.time, c.user, c.poi));
    let cut = in_span.len() - (in_span.len() as f64 * TAIL_SHARE) as usize;
    let mut tail = in_span.split_off(cut);
    let mut rng = SplitMix::new(derived_seed(seed, 4, 0));
    for i in (1..tail.len()).rev() {
        tail.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    head.extend(in_span);
    let initial = world.with_checkins(head).map_err(|e| e.to_string())?;
    Ok(ServeSplit { initial, tail })
}

/// A named pass/fail correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub passed: bool,
}

/// Operation accounting: every operation attempted, and those that failed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    fn phase(&mut self, p: &PhaseStats) {
        self.attempted += p.sent;
        self.failed += p.failed;
    }
}

/// What the serve stage measured.
#[derive(Debug, Clone, Default)]
pub struct ServeOutcome {
    pub open_s: f64,
    pub read: PhaseStats,
    pub mixed: PhaseStats,
    pub writes: Writes,
    /// When the read phase started and the mixed phase ended.
    pub open_loop: Option<(Instant, Instant)>,
    /// Every bulk round's requests.
    pub bulk: PhaseStats,
    /// Check-ins one bulk round sends.
    pub bulk_checkins: usize,
    /// Wall time of each bulk round, through its barrier.
    pub bulk_s: Vec<f64>,
    /// Whether every bulk round left the session serving the same graph.
    pub bulk_rounds_agree: bool,
    pub snapshot_ms: Vec<f64>,
    pub snapshot_bytes: usize,
    pub restore_ms: Vec<f64>,
    /// Whether every restored session serves the graph it was snapshotted
    /// with (restore is a cold rebuild).
    pub restore_matches: bool,
    /// The served graph after the whole stream was ingested.
    pub served_edges: Vec<UserPair>,
}

/// A finished lifecycle.
pub struct Run {
    pub inputs: Inputs,
    pub attack: TrainedAttack,
    /// The model behind the served session.
    pub serve_attack: TrainedAttack,
    pub split: ServeSplit,
    /// The first inference pass, one result per target.
    pub results: Vec<InferenceResult>,
    pub setup_s: f64,
    pub peak_rss_mib: f64,
    pub world_s: f64,
    pub train_s: Vec<f64>,
    pub infer_s: Vec<f64>,
    pub serve: ServeOutcome,
    pub quality: Quality,
    pub infer_digest: u64,
    pub served_digest: u64,
    pub checks: Vec<Check>,
    pub ops: Ops,
}

impl Run {
    pub fn check(&mut self, name: &str, passed: bool) {
        self.ops.attempted += 1;
        self.ops.failed += u64::from(!passed);
        self.checks.push(Check { name: name.to_string(), passed });
    }

    /// Wall time of the stages that do work (open-loop idle excluded).
    pub fn work_s(&self) -> f64 {
        let s = &self.serve;
        self.train_s.iter().sum::<f64>()
            + self.infer_s.iter().sum::<f64>()
            + s.open_s
            + s.bulk_s.iter().sum::<f64>()
            + (s.snapshot_ms.iter().sum::<f64>() + s.restore_ms.iter().sum::<f64>()) / 1e3
    }
}

/// Stages outside a workload's focus still repeat for this long of their
/// own time (unless the window is zero), so that short stages report a
/// median too.
const MIN_WINDOW: Duration = Duration::from_secs(1);
/// Training, outside its focus, repeats for longer: one ~4 s training per
/// run spread by 0.22 (IQR / median) between runs of identical work on a
/// shared 2-core host.
const MIN_TRAIN_WINDOW: Duration = Duration::from_secs(6);

fn train(cfg: &FriendSeekerConfig, ds: &Dataset) -> Fallible<TrainedAttack> {
    FriendSeeker::new(cfg.clone()).train(ds).map_err(|e| format!("training: {e}"))
}

/// Whether the recorded `times` add up to less than `window`.
fn short_of(times: &[f64], window: Duration) -> bool {
    times.iter().sum::<f64>() < window.as_secs_f64()
}

/// Trains once, recording the wall time and the persisted model's digest.
fn timed_train(
    cfg: &FriendSeekerConfig,
    ds: &Dataset,
    times: &mut Vec<f64>,
    digests: &mut Vec<u64>,
) -> Fallible<TrainedAttack> {
    let t = Instant::now();
    let attack = train(cfg, ds)?;
    times.push(t.elapsed().as_secs_f64());
    digests
        .push(save(&attack, ds.pois()).map(|b| fnv1a(&b)).map_err(|e| format!("persisting: {e}"))?);
    Ok(attack)
}

/// Runs one inference pass, recording the wall time and the digest of its
/// output edge sets.
fn timed_infer(
    attack: &TrainedAttack,
    inputs: &Inputs,
    times: &mut Vec<f64>,
    digests: &mut Vec<u64>,
) -> Fallible<Vec<InferenceResult>> {
    let t = Instant::now();
    let results = infer_pass(attack, inputs)?;
    times.push(t.elapsed().as_secs_f64());
    digests.push(digest_graphs(results.iter().map(InferenceResult::final_graph)));
    Ok(results)
}

/// Runs one lifecycle. `window` is the measured window the focus stage
/// fills; zero runs every stage once.
pub fn run(spec: &Spec, seed: u64, window: Duration, probe: &mut dyn Probe) -> Fallible<Run> {
    let stage_window = |f: Focus, floor: Duration| match window {
        Duration::ZERO => Duration::ZERO,
        _ if spec.focus == f => window.max(floor),
        _ => floor,
    };

    // Set-up: the inputs are built several times when that is cheap, and
    // the median counts.
    let setup_start = Instant::now();
    let mut world_times = Vec::new();
    let mut inputs = None;
    while world_times.is_empty()
        || (world_times.len() < 3 && setup_start.elapsed() < Duration::from_secs(2))
    {
        let t = Instant::now();
        inputs = Some(build_inputs(spec, seed)?);
        world_times.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("the set-up loop runs at least once");
    let world_s = loadgen::percentile(&world_times, 0.5);
    // The paper workload serves with the setup model, trained here.
    let t = Instant::now();
    let setup_attack = match spec.train {
        TrainSpec::Paper { .. } => Some(train(&FriendSeekerConfig::scale(), &inputs.setup_train)?),
        TrainSpec::Pinned => None,
    };
    let setup_train_s = t.elapsed().as_secs_f64();

    // One pass through every stage first.
    probe.enter(Stage::Train);
    let cfg = spec.attack_config();
    let (mut train_s, mut digests) = (Vec::new(), Vec::new());
    let mut attack = timed_train(&cfg, &inputs.train, &mut train_s, &mut digests)?;
    let serve_attack = setup_attack.unwrap_or_else(|| attack.clone());

    probe.enter(Stage::Infer);
    let (mut infer_s, mut pass_digests) = (Vec::new(), Vec::new());
    let results = timed_infer(&attack, &inputs, &mut infer_s, &mut pass_digests)?;

    probe.enter(Stage::Serve);
    let split = split_serve(&serve_attack, &inputs.serve_world, seed)?;
    // `serve-1k` runs its open-loop phases in full and fills the rest of
    // the window with bulk rounds; the other workloads keep the open-loop
    // phases brief, as no bounded metric comes from them.
    let phases = if window.is_zero() {
        Phases { read_s: spec.read_s, mixed_s: spec.mixed_s, bulk: Duration::ZERO }
    } else if spec.focus == Focus::Serve {
        let open_loop = Duration::from_secs_f64(spec.read_s + spec.mixed_s);
        let bulk = window.saturating_sub(open_loop).max(MIN_WINDOW);
        Phases { read_s: spec.read_s, mixed_s: spec.mixed_s, bulk }
    } else {
        let bulk = Duration::from_secs_f64(BULK_FLOOR_S);
        Phases { read_s: BRIEF_PHASE_S, mixed_s: BRIEF_PHASE_S, bulk }
    };
    let mut ops = Ops::default();
    let serve = serve(seed, &serve_attack, &inputs, &split, phases, &mut ops)?;
    probe.enter(Stage::End);
    // The peak memory of that one pass: how many repetitions fit the
    // window below depends on the host's speed, and a second training
    // raises the peak even though the first model is dropped.
    let peak_rss_mib =
        seeker_obs::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0));

    // Training and inference repeat until their own time adds up to their
    // window. Every repetition must give the same output (checked below).
    while short_of(&infer_s, stage_window(Focus::Infer, MIN_WINDOW)) {
        timed_infer(&attack, &inputs, &mut infer_s, &mut pass_digests)?;
    }
    while short_of(&train_s, stage_window(Focus::Train, MIN_TRAIN_WINDOW)) {
        drop(attack);
        attack = timed_train(&cfg, &inputs.train, &mut train_s, &mut digests)?;
    }
    let deterministic = digests.iter().all(|&d| d == digests[0]);

    let quality = if matches!(spec.targets, TargetSpec::Served) {
        let g = SocialGraph::from_edges(
            inputs.serve_world.n_users(),
            serve.served_edges.iter().copied(),
        );
        Quality::score(&g, None, &inputs.serve_world)
    } else {
        results.iter().zip(&inputs.targets).fold(Quality::default(), |mut q, (r, t)| {
            q.add(Quality::score(r.final_graph(), r.candidates.as_ref(), t));
            q
        })
    };
    ops.attempted += (train_s.len() + infer_s.len() * inputs.targets.len()) as u64;
    let mut run = Run {
        setup_s: world_s + setup_train_s + serve.open_s,
        peak_rss_mib,
        world_s,
        train_s,
        infer_s,
        infer_digest: pass_digests[0],
        served_digest: digest(serve.served_edges.iter().copied()),
        serve,
        quality,
        inputs,
        attack,
        serve_attack,
        split,
        results,
        checks: Vec::new(),
        ops,
    };
    run.check("training is deterministic", deterministic);
    run.check("inference passes agree", pass_digests.iter().all(|&d| d == pass_digests[0]));
    run.check("restore reproduces the served graph", run.serve.restore_matches);
    run.check("every bulk round serves the same graph", run.serve.bulk_rounds_agree);
    run.check(
        "every streamed check-in was ingested",
        run.serve.bulk.failed == 0 && run.serve.writes.stats.failed == 0,
    );
    Ok(run)
}

/// One inference pass over every target.
fn infer_pass(attack: &TrainedAttack, inputs: &Inputs) -> Fallible<Vec<InferenceResult>> {
    inputs
        .targets
        .iter()
        .map(|t| match &inputs.eval_pairs {
            Some(pairs) => Ok(attack.infer_pairs(t, pairs.clone())),
            None => attack
                .infer_sharded(t, Spec::shards(t.n_users()))
                .map_err(|e| format!("inference: {e}")),
        })
        .collect()
}

fn edges_of(top: &[(u32, u32, f64)]) -> Vec<UserPair> {
    let mut edges: Vec<UserPair> =
        top.iter().map(|&(a, b, _)| UserPair::new(UserId::new(a), UserId::new(b))).collect();
    edges.sort_unstable();
    edges
}

/// Snapshots taken, and restores made, per run; the medians count.
const SNAPSHOTS: usize = 15;
const RESTORES: usize = 5;

/// How long the serving phases run.
#[derive(Debug, Clone, Copy)]
struct Phases {
    read_s: f64,
    mixed_s: f64,
    /// Bulk rounds repeat until this has passed; zero runs one round.
    bulk: Duration,
}

fn serve(
    seed: u64,
    attack: &TrainedAttack,
    inputs: &Inputs,
    split: &ServeSplit,
    phases: Phases,
    ops: &mut Ops,
) -> Fallible<ServeOutcome> {
    let mut out = ServeOutcome::default();
    let t = Instant::now();
    let engine = IncrementalAttack::new(
        attack.clone(),
        split.initial.clone(),
        IncrementalOptions::default(),
    )
    .map_err(|e| format!("opening the session: {e}"))?;
    out.open_s = t.elapsed().as_secs_f64();
    let server = Server::start(engine, inputs.setup_train.pois().to_vec(), ServeConfig::default())
        .map_err(|e| format!("starting the server: {e}"))?;
    let addr = server.addr();
    let mut client = Client::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    ops.attempted += 3;

    // Read phase, then mixed phase: one query connection throughout, one
    // write connection during the mixed phase. The bulk phase keeps at
    // least half of the tail.
    let mixed_frames: Vec<&[CheckIn]> = split.tail.chunks(MIXED_FRAME).collect();
    let max_mixed = mixed_frames.len() / 2;
    let start = Instant::now() + Duration::from_millis(20);
    let switch = start + Duration::from_secs_f64(phases.read_s);
    let end = switch + Duration::from_secs_f64(phases.mixed_s);
    let pairs = PairStream::new(derived_seed(seed, 3, 0), split.initial.n_users());
    let ([read, mixed], writes) = std::thread::scope(|s| {
        let q = s.spawn(|| {
            loadgen::queries(addr, pairs, Schedule { start, rate: QUERY_RATE }, switch, end)
        });
        let w = s.spawn(|| {
            loadgen::writes(
                addr,
                &mixed_frames[..max_mixed],
                Schedule { start: switch, rate: WRITE_RATE },
                end,
            )
        });
        (q.join().expect("query generator panicked"), w.join().expect("write generator panicked"))
    });
    out.open_loop = Some((start, end.max(Instant::now())));
    ops.phase(&read);
    ops.phase(&mixed);
    ops.phase(&writes.stats);

    // Bulk phase: the rest of the tail, closed loop, then a barrier. While
    // `phases.bulk` lasts, the session is restored to its state before the
    // round and the round runs again; every round must serve the same
    // graph.
    let rest = &split.tail[writes.frames_sent * MIXED_FRAME..];
    let frames: Vec<&[CheckIn]> = rest.chunks(BULK_FRAME).collect();
    out.bulk_checkins = rest.len();
    let before = if phases.bulk.is_zero() {
        None
    } else {
        ops.attempted += 1;
        Some(client.snapshot().map_err(|e| format!("snapshot: {e}"))?)
    };
    let expected = inputs.serve_world.n_checkins() as u64;
    let bulk_start = Instant::now();
    let mut served_rounds = Vec::new();
    loop {
        let t = Instant::now();
        let (bulk, n_checkins) = loadgen::bulk(&mut client, &frames);
        out.bulk_s.push(t.elapsed().as_secs_f64());
        ops.phase(&bulk);
        out.bulk.absorb(bulk);
        if n_checkins != Some(expected) {
            return Err(format!(
                "the session holds {n_checkins:?} check-ins after the stream, expected {expected}"
            ));
        }
        let served =
            client.top_k(u32::MAX).map_err(|e| format!("reading the served graph: {e}"))?;
        served_rounds.push(edges_of(&served));
        ops.attempted += 1;
        match &before {
            Some(blob) if bulk_start.elapsed() < phases.bulk => {
                client.restore(blob.clone()).map_err(|e| format!("restore: {e}"))?;
                ops.attempted += 1;
            }
            _ => break,
        }
    }
    out.bulk_rounds_agree = served_rounds.iter().all(|g| *g == served_rounds[0]);
    out.served_edges = served_rounds.swap_remove(0);
    // One untimed snapshot first: the first transfer of a multi-megabyte
    // reply also pays for growing the socket buffers.
    let mut blob = client.snapshot().map_err(|e| format!("snapshot: {e}"))?;
    for _ in 0..SNAPSHOTS {
        let t = Instant::now();
        blob = client.snapshot().map_err(|e| format!("snapshot: {e}"))?;
        out.snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.snapshot_bytes = blob.len();
    out.restore_matches = true;
    for _ in 0..RESTORES {
        let t = Instant::now();
        client.restore(blob.clone()).map_err(|e| format!("restore: {e}"))?;
        out.restore_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let restored =
            client.top_k(u32::MAX).map_err(|e| format!("reading the restored graph: {e}"))?;
        out.restore_matches &= edges_of(&restored) == out.served_edges;
    }
    client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    ops.attempted += (2 + SNAPSHOTS + 2 * RESTORES) as u64;
    server.join();

    out.read = read;
    out.mixed = mixed;
    out.writes = writes;
    Ok(out)
}
