//! The traced run: the per-layer numbers behind a workload's end-to-end
//! metrics.
//!
//! It runs the lifecycle twice with every stage once, first untraced and
//! then with `seeker-obs` at `trace` level and its JSON sink installed, and
//! reads the counters and spans the program already emits from the sink's
//! document at each stage boundary. A second sink logs when each span ran
//! and what each ingest flush counted. It then replays the work stage by stage
//! through the public layer functions, timing each call, and repeats the
//! parallel stages under `seeker_par::with_threads(1, …)` for their
//! speed-up. Last, it checks two contracts on the workload's own data:
//! sharded inference equals unsharded, and the served end state equals a
//! cold `TrainedAttack::infer` of the full served world.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use friendseeker::features::{social_proximity_feature, FeatureStore};
use friendseeker::phase1::{joc_row, train_phase1};
use friendseeker::{candidate_universe_sharded, IncrementalAttack, IncrementalOptions};
use seeker_graph::{changed_edges, influence_set_seeded, KHopSubgraph, SocialGraph};
use seeker_obs::json::JsonValue;
use seeker_obs::{Counter, Event, JsonSink, Level, Sink};
use seeker_par::{par_map_cost, with_threads, Cost};
use seeker_spatial::CellIndex;
use seeker_trace::UserPair;

use crate::lifecycle::{self, Check, Fallible, NoProbe, Ops, Probe, Run, Stage};
use crate::loadgen::percentile;
use crate::quality::digest;
use crate::report::Metrics;
use crate::workloads::{Spec, MIXED_FRAME};

/// Counter totals and span totals (seconds) read from one sink document.
#[derive(Debug, Clone, Default)]
struct Snapshot {
    counters: BTreeMap<String, f64>,
    spans: BTreeMap<String, f64>,
}

impl Snapshot {
    fn parse(doc: &JsonValue) -> Snapshot {
        let mut s = Snapshot::default();
        if let Some(pairs) = doc.get("counters").and_then(JsonValue::as_object) {
            for (name, v) in pairs {
                s.counters.insert(name.clone(), v.as_f64().unwrap_or(0.0));
            }
        }
        for span in doc.get("spans").and_then(JsonValue::as_array).into_iter().flatten() {
            let name = span.get("name").and_then(JsonValue::as_str).unwrap_or_default();
            let nanos = span.get("total_nanos").and_then(JsonValue::as_f64).unwrap_or(0.0);
            s.spans.insert(name.to_string(), nanos / 1e9);
        }
        s
    }
}

/// Change of one counter or span total between two snapshots.
fn delta(
    map: fn(&Snapshot) -> &BTreeMap<String, f64>,
    a: &Snapshot,
    b: &Snapshot,
    name: &str,
) -> f64 {
    map(b).get(name).copied().unwrap_or(0.0) - map(a).get(name).copied().unwrap_or(0.0)
}

/// Snapshots the JSON sink's document, and the time, at every stage
/// boundary.
struct SinkProbe {
    sink: Arc<JsonSink>,
    at: BTreeMap<&'static str, Snapshot>,
    when: BTreeMap<&'static str, Instant>,
}

impl SinkProbe {
    fn take(&mut self, label: &'static str) {
        let doc = seeker_obs::json::parse(&self.sink.render(&seeker_obs::summary()))
            .expect("the JSON sink renders valid JSON");
        self.at.insert(label, Snapshot::parse(&doc));
        self.when.insert(label, Instant::now());
    }

    fn stage(&self, from: &str, to: &str) -> (&Snapshot, &Snapshot) {
        (&self.at[from], &self.at[to])
    }
}

impl Probe for SinkProbe {
    fn enter(&mut self, stage: Stage) {
        self.take(match stage {
            Stage::Train => "train",
            Stage::Infer => "infer",
            Stage::Serve => "serve",
            Stage::End => "end",
        });
    }
}

/// Times `f` at the pool's default width and again with one worker;
/// returns the default-width time and the speed-up.
fn timed_par<T>(mut f: impl FnMut() -> T) -> (f64, f64, T) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    let tn = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::hint::black_box(with_threads(1, &mut f));
    let t1 = t.elapsed().as_secs_f64();
    (tn, t1 / tn, out)
}

/// Median wall time of `f` over up to seven repetitions within ~0.3 s;
/// `setup` prepares each repetition's input outside the timed part.
fn timed_small<S, T>(mut setup: impl FnMut() -> S, mut f: impl FnMut(S) -> T) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 7 && (times.is_empty() || start.elapsed() < Duration::from_millis(300)) {
        let input = setup();
        let t = Instant::now();
        std::hint::black_box(f(input));
        times.push(t.elapsed().as_secs_f64());
    }
    percentile(&times, 0.5)
}

/// One `incremental.ingest` flush.
#[derive(Debug, Clone, Copy)]
struct Flush {
    ms: f64,
    /// Candidate pairs whose phase-1 row the flush recomputed.
    dirty: u64,
    /// Candidate pairs the flush's refinement ran over.
    pairs: u64,
}

#[derive(Debug, Default)]
struct SpanLogState {
    /// Start and end of every outermost span, on any thread.
    outermost: Vec<(Instant, Instant)>,
    /// Counter readings when each thread's open flush started.
    open_flush: HashMap<ThreadId, (u64, u64)>,
    flushes: Vec<Flush>,
}

/// Logs when every outermost span ran, and, per ingest flush, how many
/// candidate pairs it dirtied out of how many it refined. Sinks are called
/// on the emitting thread, so the counters read around a flush move only
/// with that flush: the engine thread runs one at a time.
struct SpanLog {
    dirty: &'static Counter,
    evaluated: &'static Counter,
    state: Mutex<SpanLogState>,
}

impl SpanLog {
    fn new() -> Arc<SpanLog> {
        Arc::new(SpanLog {
            dirty: Counter::register("incremental.ingest.dirty_pairs"),
            evaluated: Counter::register("core.pairs_evaluated"),
            state: Mutex::default(),
        })
    }

    fn take(&self) -> SpanLogState {
        std::mem::take(&mut *self.state.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl Sink for SpanLog {
    fn record(&self, event: &Event) {
        let now = Instant::now();
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let thread = std::thread::current().id();
        match *event {
            Event::SpanStart { name: "incremental.ingest", .. } => {
                state.open_flush.insert(thread, (self.dirty.get(), self.evaluated.get()));
            }
            Event::SpanEnd { name, depth, nanos } => {
                if depth == 0 {
                    state.outermost.push((now - Duration::from_nanos(nanos), now));
                }
                if name == "incremental.ingest" {
                    if let Some((dirty, pairs)) = state.open_flush.remove(&thread) {
                        state.flushes.push(Flush {
                            ms: nanos as f64 / 1e6,
                            dirty: self.dirty.get() - dirty,
                            pairs: self.evaluated.get() - pairs,
                        });
                    }
                }
            }
            _ => {}
        }
    }
}

/// Share of the wall time from `from` to `to`, less the `skip` window,
/// during which no span was open on any thread.
fn unattributed_pct(
    spans: &[(Instant, Instant)],
    from: Instant,
    to: Instant,
    skip: Option<(Instant, Instant)>,
) -> f64 {
    let windows = match skip {
        Some((a, b)) => vec![(from, a.clamp(from, to)), (b.clamp(from, to), to)],
        None => vec![(from, to)],
    };
    let (mut base, mut covered) = (Duration::ZERO, Duration::ZERO);
    for (lo, hi) in windows {
        base += hi.saturating_duration_since(lo);
        let mut clipped: Vec<(Instant, Instant)> =
            spans.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|(a, b)| a < b).collect();
        clipped.sort_unstable();
        let mut reach = lo;
        for (a, b) in clipped {
            covered += b.saturating_duration_since(a.max(reach));
            reach = reach.max(b);
        }
    }
    100.0 * (1.0 - covered.as_secs_f64() / base.as_secs_f64())
}

/// The result of a traced run.
pub struct Traced {
    pub metrics: Metrics,
    pub checks: Vec<Check>,
    pub ops: Ops,
    pub run: Run,
}

pub fn run(spec: &Spec, seed: u64) -> Fallible<Traced> {
    seeker_obs::set_level(Level::Off);
    let untraced = lifecycle::run(spec, seed, Duration::ZERO, &mut NoProbe)?;
    let untraced_work = untraced.work_s();
    let (mut ops, mut checks) = (untraced.ops, untraced.checks);

    // The sink's document is rendered in memory and never written out.
    let sink = JsonSink::new("seekbench-obs.json");
    let log = SpanLog::new();
    let guards = [seeker_obs::add_sink(sink.clone()), seeker_obs::add_sink(log.clone())];
    seeker_obs::set_level(Level::Trace);
    let mut probe = SinkProbe { sink, at: BTreeMap::new(), when: BTreeMap::new() };
    probe.take("setup");
    let traced = lifecycle::run(spec, seed, Duration::ZERO, &mut probe);
    seeker_obs::set_level(Level::Off);
    drop(guards);
    let run = traced?;
    ops.attempted += run.ops.attempted;
    ops.failed += run.ops.failed;
    checks.extend(run.checks.iter().cloned());
    let log = log.take();

    let mut m = Metrics::default();
    let (t0, t1) = probe.stage("train", "infer");
    let span = |a, b, n| delta(|s| &s.spans, a, b, n);
    let count = |a, b, n| delta(|s| &s.counters, a, b, n);
    m.add("trace.world_s", run.world_s, "s");
    let ae_fit_s = span(t0, t1, "nn.autoencoder.fit");
    m.add("nn.ae_fit_s", ae_fit_s, "s");
    m.add("nn.ae_fit_share", ae_fit_s / run.train_s[0], "ratio");
    m.add("ml.svm_fit_s", span(t0, t1, "ml.svm.fit"), "s");
    m.add("ml.svm_kernel_evals", count(t0, t1, "ml.svm.kernel_evals"), "count");
    let hits = count(t0, t1, "ml.svm.row_cache.hits");
    let misses = count(t0, t1, "ml.svm.row_cache.misses");
    m.add("ml.svm_row_cache_hit_ratio", hits / (hits + misses), "ratio");
    m.add("core.phase1_train_s", span(t0, t1, "phase1.train"), "s");
    m.add("core.phase2_train_s", span(t0, t1, "phase2.train"), "s");

    let (i0, i1) = probe.stage("infer", "serve");
    m.add("spatial.joc_builds", count(i0, i1, "spatial.joc.builds"), "count");
    m.add("spatial.joc_cells", count(i0, i1, "spatial.joc.cells"), "count");
    m.add("graph.khop_extractions", count(i0, i1, "graph.khop.extractions"), "count");
    m.add("core.phase2_infer_s", span(i0, i1, "phase2.infer"), "s");
    let iterations: usize = run.results.iter().map(|r| r.trace.n_iterations()).sum();
    let row_passes: usize =
        run.results.iter().map(|r| r.pairs.len() * r.trace.n_iterations().max(1)).sum();
    m.add("core.phase2_iterations", iterations as f64, "count");
    m.add(
        "core.phase2_dirty_fraction",
        count(i0, i1, "phase2.refine.dirty_pairs") / row_passes as f64,
        "ratio",
    );

    let (s0, s1) = probe.stage("serve", "end");
    let ingest_ms: Vec<f64> = log.flushes.iter().map(|f| f.ms).collect();
    m.add("core.open_s", run.serve.open_s, "s");
    m.add("core.ingest_p50_ms", percentile(&ingest_ms, 0.5), "ms");
    m.add("core.ingest_max_ms", percentile(&ingest_ms, 1.0), "ms");
    m.add("core.ingest_flushes", ingest_ms.len() as f64, "count");
    let dirty: u64 = log.flushes.iter().map(|f| f.dirty).sum();
    let refined: u64 = log.flushes.iter().map(|f| f.pairs).sum();
    m.add("core.ingest_dirty_fraction", dirty as f64 / refined as f64, "ratio");
    let frames = run.serve.writes.frames_sent
        + run.serve.bulk_s.len() * run.serve.bulk_checkins.div_ceil(crate::workloads::BULK_FRAME);
    m.add(
        "serve.flushes_per_frame",
        count(s0, s1, "serve.ingest.flushes") / frames as f64,
        "ratio",
    );
    m.add("serve.snapshot_bytes", run.serve.snapshot_bytes as f64, "bytes");
    let visible = &run.serve.writes.visible_ms;
    m.add("serve.generator_late_ms", percentile(&run.serve.read.lag_ms, 0.99), "ms");
    m.add("serve.query_p50_us", percentile(&run.serve.read.latency_us, 0.5), "us");
    m.add("serve.query_p99_us", percentile(&run.serve.read.latency_us, 0.99), "us");
    m.add("serve.mixed_query_p50_us", percentile(&run.serve.mixed.latency_us, 0.5), "us");
    m.add("serve.mixed_query_p99_us", percentile(&run.serve.mixed.latency_us, 0.99), "us");
    m.add("serve.visible_p50_ms", percentile(visible, 0.5), "ms");
    m.add("quality.precision", run.quality.precision(), "ratio");
    m.add("quality.recall", run.quality.recall(), "ratio");
    m.add("serve.visible_samples", visible.len() as f64, "count");
    m.add("serve.visible_max_ms", percentile(visible, 1.0), "ms");
    let mixed_sent = run.serve.mixed.sent + run.serve.writes.stats.sent;
    let mixed_ok = run.serve.mixed.ok + run.serve.writes.stats.ok;
    let mixed_failed = run.serve.mixed.failed + run.serve.writes.stats.failed;
    for (phase, sent, ok, failed) in [
        ("read", run.serve.read.sent, run.serve.read.ok, run.serve.read.failed),
        ("mixed", mixed_sent, mixed_ok, mixed_failed),
        ("bulk", run.serve.bulk.sent, run.serve.bulk.ok, run.serve.bulk.failed),
    ] {
        m.add(&format!("serve.{phase}.ops_sent"), sent as f64, "count");
        m.add(&format!("serve.{phase}.ops_ok"), ok as f64, "count");
        m.add(&format!("serve.{phase}.ops_failed"), failed as f64, "count");
    }
    let (a, b) = probe.stage("train", "end");
    m.add("par.dispatches", count(a, b, "par.dispatches"), "count");
    m.add("par.items", count(a, b, "par.items"), "count");
    m.add(
        "obs.unattributed_pct",
        unattributed_pct(
            &log.outermost,
            probe.when["setup"],
            probe.when["end"],
            run.serve.open_loop,
        ),
        "%",
    );
    m.add("obs.trace_overhead_pct", 100.0 * (run.work_s() - untraced_work) / untraced_work, "%");

    replay(spec, &run, &mut m, &mut checks, &mut ops)?;
    Ok(Traced { metrics: m, checks, ops, run })
}

/// Replays the lifecycle's work through the public layer functions.
fn replay(
    spec: &Spec,
    run: &Run,
    m: &mut Metrics,
    checks: &mut Vec<Check>,
    ops: &mut Ops,
) -> Fallible<()> {
    let cfg = spec.attack_config();
    let attack = &run.attack;
    let phase1 = attack.phase1();
    let target = &run.inputs.targets[0];
    let k = cfg.k_hop;

    // Phase-1 training of the first training world, with the summary span
    // table on for its autoencoder fit time, and the fit's arithmetic from
    // the layer shapes.
    let fit_nanos = || {
        seeker_obs::span_stats()
            .iter()
            .find(|s| s.name == "nn.autoencoder.fit")
            .map_or(0, |s| s.total_nanos)
    };
    seeker_obs::set_level(Level::Summary);
    let before = fit_nanos();
    let (_, speedup, training) = timed_par(|| {
        let training = train_phase1(&cfg, &run.inputs.train);
        seeker_obs::set_level(Level::Off);
        training
    });
    let fit_s = (fit_nanos() - before) as f64 / 1e9;
    let training = training.map_err(|e| format!("train_phase1: {e}"))?;
    m.add("par.speedup.phase1_train", speedup, "x");
    let ae = training.model.autoencoder().config();
    let enc = ae.encoder_dims();
    let dec: Vec<usize> = enc.iter().rev().copied().collect();
    let head = [ae.bottleneck, ae.classifier_hidden, 1];
    let weights: usize = [&enc[..], &dec[..], &head[..]]
        .iter()
        .map(|dims| dims.windows(2).map(|w| w[0] * w[1]).sum::<usize>())
        .sum();
    let rows = training.train_pairs.len() - training.holdout.len() + cfg.zero_joc_negatives;
    // Forward 2 flops per weight per row, backward twice that.
    let gflop = 6.0 * weights as f64 * rows as f64 * ae.epochs as f64 / 1e9;
    m.add("nn.ae_fit_gflop", gflop, "GFLOP");
    m.add("nn.ae_fit_gflops", gflop / fit_s, "GFLOP/s");

    // Candidates and phase-1 scoring over the pairs inference scored.
    let shards = Spec::shards(target.n_users());
    let (secs, speedup, universe) =
        timed_par(|| candidate_universe_sharded(phase1, target, shards));
    let universe = universe.map_err(|e| format!("candidates: {e}"))?;
    m.add("spatial.candidates_s", secs, "s");
    m.add("par.speedup.candidates", speedup, "x");
    m.add("spatial.candidate_pairs", universe.pairs.len() as f64, "count");
    m.add("spatial.retained_fraction", universe.retained_fraction(), "ratio");

    let result = &run.results[0];
    let pairs: &[UserPair] = &result.pairs;
    let (secs, speedup, _) = timed_par(|| phase1.predict_proba(target, pairs));
    m.add("core.phase1_score_s", secs, "s");
    m.add("par.speedup.phase1_score", speedup, "x");
    let joc: Vec<_> = pairs.iter().map(|&p| joc_row(phase1.division(), target, p)).collect();
    let (secs, speedup, _) = timed_par(|| phase1.autoencoder().encode(&joc));
    m.add("nn.ae_encode_s", secs, "s");
    m.add("par.speedup.ae_encode", speedup, "x");

    // One refinement iteration's layers over G⁰: k-hop features, scaler,
    // SVM decision.
    let g0 = &result.trace.graphs[0];
    let store = FeatureStore::build(phase1, target, pairs);
    let (secs, speedup, social) = timed_par(|| {
        par_map_cost(pairs, Cost::Heavy, |&p| {
            social_proximity_feature(&KHopSubgraph::extract(g0, p, k), k, &store)
        })
    });
    m.add("graph.khop_s", secs, "s");
    m.add("par.speedup.khop", speedup, "x");
    let composite: Vec<Vec<f32>> = pairs
        .iter()
        .zip(social)
        .map(|(p, s)| {
            let mut v = store.get(*p).expect("every scored pair is in the store").to_vec();
            v.extend(s);
            v
        })
        .collect();
    let phase2 = attack.phase2();
    let t = Instant::now();
    let scaled = std::hint::black_box(phase2.scaler().transform(&composite));
    m.add("ml.scaler_s", t.elapsed().as_secs_f64(), "s");
    let (secs, speedup, _) = timed_par(|| phase2.svm().decision(&scaled));
    m.add("ml.svm_decision_s", secs, "s");
    m.add("par.speedup.svm_decision", speedup, "x");

    // Ingest layers on the served session's first frame.
    let initial = &run.split.initial;
    let frame = &run.split.tail[..MIXED_FRAME.min(run.split.tail.len())];
    let serve_attack = &run.serve_attack;
    let division = serve_attack.phase1().division();
    m.add("core.append_batch_ms", 1e3 * timed_small(|| (), |()| initial.append_batch(frame)), "ms");
    let index = CellIndex::build(initial, division);
    m.add(
        "spatial.cell_index_apply_ms",
        1e3 * timed_small(|| index.clone(), |mut index| index.apply(division, frame)),
        "ms",
    );
    m.add(
        "core.persist_save_ms",
        1e3 * timed_small(
            || (),
            |()| friendseeker::persist::save(serve_attack, run.inputs.setup_train.pois()),
        ),
        "ms",
    );
    let (_, speedup, engine) = timed_par(|| {
        IncrementalAttack::new(serve_attack.clone(), initial.clone(), IncrementalOptions::default())
    });
    let engine = engine.map_err(|e| format!("open: {e}"))?;
    m.add("par.speedup.open", speedup, "x");

    // Warm-refinement layers on the served session: the diff between the
    // opened graph and the graph after the whole stream, and the influence
    // set seeded by the first frame's users.
    let before = engine.result().final_graph();
    let after =
        SocialGraph::from_edges(before.n_vertices(), run.serve.served_edges.iter().copied());
    let diff = changed_edges(before, &after);
    m.add("graph.diff_s", timed_small(|| (), |()| changed_edges(before, &after)), "s");
    let mut users: Vec<_> = frame.iter().map(|c| c.user).collect();
    users.sort_unstable();
    users.dedup();
    let radius = serve_attack.config().k_hop - 1;
    m.add(
        "graph.influence_s",
        timed_small(|| (), |()| influence_set_seeded(before, &after, &diff, &users, radius)),
        "s",
    );

    // Contracts on the workload's own data.
    let unsharded = attack.infer(target).map_err(|e| format!("infer: {e}"))?;
    let sharded =
        attack.infer_sharded(target, shards).map_err(|e| format!("infer_sharded: {e}"))?;
    let mut check = |name: &str, passed: bool| {
        ops.attempted += 1;
        ops.failed += u64::from(!passed);
        checks.push(Check { name: name.to_string(), passed });
    };
    check(
        "sharded inference equals unsharded",
        digest(sharded.final_graph().edges()) == digest(unsharded.final_graph().edges()),
    );
    let cold =
        serve_attack.infer(&run.inputs.serve_world).map_err(|e| format!("cold infer: {e}"))?;
    check(
        "served end state equals a cold infer of the full world",
        cold.final_graph().edges().collect::<Vec<_>>() == run.serve.served_edges,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unattributed_counts_uncovered_wall_once() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Two overlapping spans on different threads cover 10..40; a third
        // lies inside the skipped window; 60..100 is uncovered.
        let spans = [(at(10), at(30)), (at(20), at(40)), (at(45), at(55))];
        let pct = unattributed_pct(&spans, at(0), at(100), Some((at(40), at(60))));
        assert!((pct - 100.0 * 50.0 / 80.0).abs() < 1e-9, "{pct}");
        assert!((unattributed_pct(&spans, at(10), at(40), None)).abs() < 1e-9);
    }
}
