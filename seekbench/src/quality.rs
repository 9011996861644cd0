//! Attack quality over the whole pair universe, and edge-set digests.

use friendseeker::persist::fnv1a;
use friendseeker::CandidateUniverse;
use seeker_graph::SocialGraph;
use seeker_trace::{Dataset, UserPair};

/// Confusion counts of a predicted edge set against the true links.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quality {
    pub tp: u64,
    pub fp: u64,
    pub fn_: u64,
}

impl Quality {
    /// Scores a predicted graph against `target`'s links.
    ///
    /// The predicted edges are the graph's edges plus, when the candidate
    /// universe says the never-co-located residue scores as friends and the
    /// graph was not already computed over the whole universe, every pair
    /// outside the candidate set.
    pub fn score(
        graph: &SocialGraph,
        universe: Option<&CandidateUniverse>,
        target: &Dataset,
    ) -> Quality {
        let mut q = Quality::default();
        for e in graph.edges() {
            if target.are_friends(e.lo(), e.hi()) {
                q.tp += 1;
            } else {
                q.fp += 1;
            }
        }
        let n_links = target.n_links() as u64;
        let residue = universe.filter(|u| {
            u.residue_predicted_friend && (graph.n_edges() as u64) < u.n_total && u.n_residue > 0
        });
        if let Some(u) = residue {
            // Links never co-located are exactly the true edges of the residue.
            let in_candidates =
                target.friendships().filter(|f| u.pairs.binary_search(f).is_ok()).count() as u64;
            let residue_links = n_links - in_candidates;
            q.tp += residue_links;
            q.fp += u.n_residue - residue_links;
        }
        q.fn_ = n_links - q.tp;
        q
    }

    /// Sums counts over several targets.
    pub fn add(&mut self, other: Quality) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
    }

    pub fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    pub fn recall(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    pub fn f1(&self) -> f64 {
        ratio(2 * self.tp, 2 * self.tp + self.fp + self.fn_)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// FNV-1a digest of an edge set in canonical order.
pub fn digest(edges: impl IntoIterator<Item = UserPair>) -> u64 {
    let mut bytes = Vec::new();
    for e in edges {
        bytes.extend_from_slice(&e.lo().raw().to_le_bytes());
        bytes.extend_from_slice(&e.hi().raw().to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Digest of several graphs in order; each graph's edge count separates it
/// from the next.
pub fn digest_graphs<'a>(graphs: impl IntoIterator<Item = &'a SocialGraph>) -> u64 {
    let mut bytes = Vec::new();
    for g in graphs {
        bytes.extend_from_slice(&(g.n_edges() as u64).to_le_bytes());
        bytes.extend_from_slice(&digest(g.edges()).to_le_bytes());
    }
    fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seeker_trace::synth::{generate, SyntheticConfig};
    use seeker_trace::UserId;

    #[test]
    fn perfect_prediction_scores_one() {
        let ds = generate(&SyntheticConfig::small(1)).expect("world").dataset;
        let g = SocialGraph::from_edges(ds.n_users(), ds.friendships());
        let q = Quality::score(&g, None, &ds);
        assert_eq!((q.tp, q.fp, q.fn_), (ds.n_links() as u64, 0, 0));
        assert_eq!(q.f1(), 1.0);
    }

    #[test]
    fn residue_counts_as_predicted_when_flagged() {
        let ds = generate(&SyntheticConfig::small(2)).expect("world").dataset;
        let n = ds.n_users() as u64;
        let universe = CandidateUniverse {
            pairs: Vec::new(),
            n_total: n * (n - 1) / 2,
            n_residue: n * (n - 1) / 2,
            residue_probability: 0.9,
            residue_predicted_friend: true,
        };
        let empty = SocialGraph::new(ds.n_users());
        let q = Quality::score(&empty, Some(&universe), &ds);
        assert_eq!(q.tp, ds.n_links() as u64);
        assert_eq!(q.tp + q.fp, universe.n_total);
        assert_eq!(q.recall(), 1.0);
    }

    #[test]
    fn digest_depends_on_edges() {
        let a = UserPair::new(UserId::new(0), UserId::new(1));
        let b = UserPair::new(UserId::new(0), UserId::new(2));
        assert_eq!(digest([a, b]), digest([a, b]));
        assert_ne!(digest([a, b]), digest([a]));
    }
}
