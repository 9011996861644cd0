//! Property-based tests of the refinement loop's dirty-row rule: refreshing
//! only the rows `crate::phase2::dirty_rows` names must keep a feature
//! matrix bit-identical to a full recompute across arbitrary sequences of
//! graph diffs, data-dirty users and forced rows.

use proptest::prelude::*;
use seeker_graph::{KHopSubgraph, SocialGraph};
use seeker_trace::{UserId, UserPair};

use crate::phase2::{dirty_rows, path_count_profile};

/// A structure-reading feature standing in for the composite feature: the
/// pair's path counts per length, its own "presence" value, and the sum of
/// the presence values of the edges on its length-≤k paths. Presence of
/// `(i, j)` depends on per-user data of `i` and `j` only, so any unsound
/// reuse — of graph or of data dirt — shows up as a mismatch.
fn stand_in_feature(g: &SocialGraph, p: UserPair, k: usize, data: &[u32]) -> Vec<f32> {
    let presence = |e: UserPair| (data[e.lo().index()] * 31 + data[e.hi().index()]) as f32;
    let mut v: Vec<f32> = path_count_profile(g, p, k).iter().map(|&c| c as f32).collect();
    v.push(presence(p));
    v.push(KHopSubgraph::extract(g, p, k).edges().into_iter().map(presence).sum());
    v
}

fn all_pairs_of(n: usize) -> Vec<UserPair> {
    let mut out = Vec::new();
    for a in 0..n as u32 {
        for b in (a + 1)..n as u32 {
            out.push(UserPair::new(UserId::new(a), UserId::new(b)));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dirty-row refresh == full recompute over a random sequence of graph
    /// mutations, user data changes (vertex seeds) and forced rows, for
    /// every pair and every k in the paper's range.
    #[test]
    fn dirty_row_refresh_matches_full(
        n in 3usize..10,
        k in 2usize..5,
        init_edges in proptest::collection::vec((0u32..10, 0u32..10), 0..20),
        steps in proptest::collection::vec(
            (
                proptest::collection::vec((0u32..10, 0u32..10), 1..5),
                proptest::collection::vec(0u32..10, 0..3),
                proptest::collection::vec(0usize..45, 0..3),
            ),
            1..5,
        ),
    ) {
        let mut data = vec![0u32; n];
        let mut graph = SocialGraph::new(n);
        for (a, b) in init_edges {
            let (a, b) = (a % n as u32, b % n as u32);
            if a != b {
                graph.add_edge(UserPair::new(UserId::new(a), UserId::new(b)));
            }
        }
        let pairs = all_pairs_of(n);
        let mut features: Vec<Vec<f32>> =
            pairs.iter().map(|&p| stand_in_feature(&graph, p, k, &data)).collect();
        for (flips, seeds, forced) in steps {
            let prev = graph.clone();
            // Mutate: toggle a handful of edges (diffs of the kind the
            // refinement loop produces, including no-op steps).
            for (a, b) in flips {
                let (a, b) = (a % n as u32, b % n as u32);
                if a == b {
                    continue;
                }
                let e = UserPair::new(UserId::new(a), UserId::new(b));
                if !graph.add_edge(e) {
                    graph.remove_edge(e);
                }
            }
            // Data dirt: the seeded users' presence rows change.
            let seeds: Vec<UserId> = seeds.iter().map(|&u| UserId::new(u % n as u32)).collect();
            for u in &seeds {
                data[u.index()] += 1;
            }
            // Forced rows stand for freshly inserted pairs: placeholders
            // that only the forced recompute fills in.
            let forced: Vec<usize> = forced.iter().map(|&i| i % pairs.len()).collect();
            for &i in &forced {
                features[i] = Vec::new();
            }
            let dirty = dirty_rows(&prev, &graph, &pairs, k, &seeds, &forced);
            prop_assert!(dirty.windows(2).all(|w| w[0] < w[1]), "dirty indices sorted");
            for &i in &dirty {
                features[i] = stand_in_feature(&graph, pairs[i], k, &data);
            }
            let full: Vec<Vec<f32>> =
                pairs.iter().map(|&p| stand_in_feature(&graph, p, k, &data)).collect();
            prop_assert_eq!(&features, &full, "dirty-row refresh diverged from full recompute");
        }
    }
}
