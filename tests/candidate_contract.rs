//! Candidate-mode / incremental-refinement exactness contract.
//!
//! The quadratic reference — full pair universe, every composite feature
//! recomputed every iteration (`reference_infer` below, built from public
//! API only) — and the optimized default path — co-occurrence candidates
//! plus dirty-row refresh (`TrainedAttack::infer`) — must produce **bit
//! identical** output on a fixed seed: the same final `SocialGraph`, the
//! same graph sequence, and the same change ratios to the last bit.
//!
//! Incremental vs full refinement over the *same* pair list is exact by
//! construction (the dirty-radius argument in DESIGN.md §8.2); candidate
//! pruning is additionally guarded by the zero-JOC fallback, so the
//! universes also agree whenever pruning would be unsound.

use friendseeker::features::{composite_feature, FeatureStore};
use friendseeker::pairs::{all_pairs, labeled_pairs};
use friendseeker::phase2::{graph_from_predictions, IterationTrace};
use friendseeker::{FriendSeeker, FriendSeekerConfig, InferenceResult, TrainedAttack};
use seeker_trace::synth::{generate, SyntheticConfig};
use seeker_trace::{Dataset, UserPair};
use std::sync::OnceLock;

/// The from-scratch oracle: phase-1 graph, then frozen-`C'` refinement that
/// recomputes every pair's composite feature and decision each iteration.
fn reference_infer(
    attack: &TrainedAttack,
    target: &Dataset,
    pairs: Vec<UserPair>,
) -> InferenceResult {
    let (cfg, phase1, phase2) = (attack.config(), attack.phase1(), attack.phase2());
    let store = FeatureStore::build(phase1, target, &pairs);
    let mut graphs = vec![phase1.predict_graph(target, &pairs)];
    let mut change_ratios = Vec::new();
    let mut converged = phase2.n_iterations() == 0;
    for _ in 0..phase2.n_iterations().min(cfg.max_iterations) {
        let g = graphs.last().unwrap();
        let rows: Vec<Vec<f32>> =
            pairs.iter().map(|&p| composite_feature(g, p, cfg.k_hop, &store)).collect();
        let preds = phase2.svm().predict(&phase2.scaler().transform(&rows));
        let next = graph_from_predictions(target.n_users(), &pairs, &preds);
        let change = g.change_ratio(&next);
        graphs.push(next);
        change_ratios.push(change);
        if change < cfg.convergence_threshold {
            converged = true;
            break;
        }
    }
    InferenceResult {
        pairs,
        trace: IterationTrace { graphs, change_ratios, converged },
        candidates: None,
    }
}

fn fixture() -> &'static (Dataset, TrainedAttack) {
    static CELL: OnceLock<(Dataset, TrainedAttack)> = OnceLock::new();
    CELL.get_or_init(|| {
        let train = generate(&SyntheticConfig::small(61)).unwrap().dataset;
        let target = generate(&SyntheticConfig::small(62)).unwrap().dataset;
        let attack = FriendSeeker::new(FriendSeekerConfig::fast()).train(&train).unwrap();
        (target, attack)
    })
}

fn assert_traces_identical(a: &InferenceResult, b: &InferenceResult, what: &str) {
    assert_eq!(a.trace.converged, b.trace.converged, "{what}: convergence flag");
    assert_eq!(a.trace.graphs.len(), b.trace.graphs.len(), "{what}: iteration count");
    for (i, (ga, gb)) in a.trace.graphs.iter().zip(b.trace.graphs.iter()).enumerate() {
        assert_eq!(ga, gb, "{what}: graph {i} differs");
    }
    let ra: Vec<u64> = a.trace.change_ratios.iter().map(|r| r.to_bits()).collect();
    let rb: Vec<u64> = b.trace.change_ratios.iter().map(|r| r.to_bits()).collect();
    assert_eq!(ra, rb, "{what}: change ratios must be bit-identical");
}

/// The headline contract: default `infer` (candidates + incremental)
/// against the oracle (all pairs + full recompute per iteration).
#[test]
fn candidate_incremental_infer_matches_full_reference() {
    let (target, attack) = fixture();
    let fast = attack.infer(target).unwrap();
    let full = reference_infer(attack, target, all_pairs(target).unwrap());
    assert_traces_identical(&fast, &full, "infer vs reference");
    assert_eq!(fast.final_graph(), full.final_graph());
    // The universe split is recorded and accounts for every pair.
    let u = fast.candidates.as_ref().expect("candidate mode records its split");
    assert_eq!(u.pairs.len() as u64 + u.n_residue, u.n_total);
    let n = target.n_users() as u64;
    assert_eq!(u.n_total, n * (n - 1) / 2);
}

/// Incremental vs full refinement over the *same* explicit pair list —
/// the part of the contract that is exact by the dirty-radius theorem,
/// independent of candidate pruning.
#[test]
fn incremental_refine_matches_full_on_explicit_pairs() {
    let (target, attack) = fixture();
    for seed in [777u64, 4242] {
        let pairs = labeled_pairs(target, 1.0, seed).pairs;
        let fast = attack.infer_pairs(target, pairs.clone());
        let full = reference_infer(attack, target, pairs);
        assert_traces_identical(&fast, &full, "infer_pairs vs reference");
    }
}

/// Same exactness over the full quadratic universe.
#[test]
fn incremental_refine_matches_full_on_quadratic_universe() {
    let (target, attack) = fixture();
    let pairs = all_pairs(target).unwrap();
    let fast = attack.infer_pairs(target, pairs.clone());
    let full = reference_infer(attack, target, pairs);
    assert_traces_identical(&fast, &full, "quadratic infer_pairs vs reference");
}
