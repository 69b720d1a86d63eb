//! Pool sizing for memory-saving CLA recomputation.
//!
//! [`LikelihoodEngine::with_pool`](crate::LikelihoodEngine::with_pool)
//! caps CLA memory at a fixed number of slots and recomputes evicted
//! CLAs on demand (§V-A, Izquierdo-Carrasco et al.). During the
//! post-order traversal a child CLA is pinned only until its parent has
//! consumed it, so the minimum viable pool is the maximum number of
//! simultaneously-live CLAs, which is bounded by the tree height (≈ log₂
//! n for balanced trees, the paper's 15-taxon trees need 4).

use phylo_tree::traverse::{children, full_schedule};
use phylo_tree::{EdgeId, Tree};

/// The smallest CLA pool that can evaluate `tree` at `root_edge`:
/// the maximum number of simultaneously pinned CLAs in the post-order
/// traversal (computed-but-unconsumed nodes plus the two root-adjacent
/// ones). Bounded by the tree height plus a constant.
pub fn min_pool_slots(tree: &Tree, root_edge: EdgeId) -> usize {
    let (ra, rb) = tree.endpoints(root_edge);
    let num_taxa = tree.num_taxa();
    let mut pinned = vec![false; tree.num_inner()];
    let mut live = 0usize;
    let mut peak = 0usize;
    for d in full_schedule(tree, root_edge) {
        let idx = d.node - num_taxa;
        if !pinned[idx] {
            pinned[idx] = true;
            live += 1;
            peak = peak.max(live);
        }
        for (_, c) in children(tree, d.node, d.toward_edge) {
            if !tree.is_tip(c) && c != ra && c != rb {
                let cidx = c - num_taxa;
                if pinned[cidx] {
                    pinned[cidx] = false;
                    live -= 1;
                }
            }
        }
    }
    peak.max(3)
}

/// The smallest pool that works for *any* virtual-root placement on
/// this tree.
pub fn min_pool_slots_any_root(tree: &Tree) -> usize {
    tree.edge_ids()
        .map(|e| min_pool_slots(tree, e))
        .max()
        .unwrap_or(3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, LikelihoodEngine};
    use crate::instrument::KernelId;
    use crate::repeats::SiteRepeats;
    use phylo_bio::CompressedAlignment;
    use phylo_tree::build::{balanced, caterpillar, default_names, random_tree};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn dataset(taxa: usize, seed: u64) -> (Tree, CompressedAlignment) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let names = default_names(taxa);
        let tree = random_tree(&names, 0.15, &mut rng).unwrap();
        let aln = random_alignment(&tree, 120, &mut rng);
        (tree, aln)
    }

    // Random unambiguous codes (no dev-dependency cycle with
    // phylo-seqgen); pool behavior does not depend on realism.
    fn random_alignment(tree: &Tree, patterns: usize, rng: &mut SmallRng) -> CompressedAlignment {
        use rand::Rng;
        let names: Vec<String> = tree.tip_names().to_vec();
        let rows = (0..tree.num_taxa())
            .map(|_| {
                (0..patterns)
                    .map(|_| phylo_bio::DnaCode::from_state(rng.random_range(0..4)))
                    .collect()
            })
            .collect();
        CompressedAlignment::from_parts(names, rows, vec![1; patterns]).unwrap()
    }

    #[test]
    fn matches_full_engine_at_every_viable_pool_size() {
        let (tree, aln) = dataset(12, 5);
        let cfg = EngineConfig::default();
        let mut full = LikelihoodEngine::new(&tree, &aln, cfg);
        // The changed tree is evaluated by the same pooled engines with
        // no `invalidate_all`: cache keys must catch the branch change.
        let mut changed = tree.clone();
        changed.set_length(5, 0.9).unwrap();
        let mut fresh = LikelihoodEngine::new(&changed, &aln, cfg);
        for root in [0usize, 5, 11] {
            let expect = full.log_likelihood(&tree, root);
            let expect_changed = fresh.log_likelihood(&changed, root);
            let min = min_pool_slots(&tree, root);
            assert!(min < tree.num_inner(), "memory saving must be possible");
            for pool in min..=tree.num_inner() {
                let mut rec = LikelihoodEngine::with_pool(&tree, &aln, cfg, pool);
                for (t, want) in [(&tree, expect), (&changed, expect_changed)] {
                    let got = rec.log_likelihood(t, root);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "pool {pool} root {root}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn memory_is_actually_bounded() {
        let (tree, aln) = dataset(20, 6);
        let rec = LikelihoodEngine::with_pool(&tree, &aln, EngineConfig::default(), 4);
        assert_eq!(rec.pool_slots(), 4);
        // Under a quarter of the full engine's CLA memory.
        assert!(4 * rec.pool_slots() < tree.num_inner());
    }

    #[test]
    fn small_pool_costs_more_newview_calls() {
        let (tree, aln) = dataset(14, 7);
        let cfg = EngineConfig::default();
        // Generous pool: repeated evaluation at alternating roots keeps
        // most CLAs resident.
        let mut big = LikelihoodEngine::with_pool(&tree, &aln, cfg, tree.num_inner());
        let small_pool = min_pool_slots_any_root(&tree);
        let mut small = LikelihoodEngine::with_pool(&tree, &aln, cfg, small_pool);
        for _ in 0..4 {
            for root in [0usize, 10] {
                big.log_likelihood(&tree, root);
                small.log_likelihood(&tree, root);
            }
        }
        let big_calls = big.stats().get(KernelId::Newview).calls;
        let small_calls = small.stats().get(KernelId::Newview).calls;
        assert!(
            small_calls > big_calls,
            "expected recomputation overhead: {small_calls} vs {big_calls}"
        );
    }

    #[test]
    fn caterpillar_needs_only_constant_pool() {
        // A pectinate tree is the deep-traversal worst case for naive
        // strategies, but post-order pinning keeps the live set tiny.
        let names = default_names(24);
        let tree = caterpillar(&names, 0.1).unwrap();
        let aln = random_alignment(&tree, 60, &mut SmallRng::seed_from_u64(9));
        let cfg = EngineConfig::default();
        let mut full = LikelihoodEngine::new(&tree, &aln, cfg);
        let expect = full.log_likelihood(&tree, 0);
        let min = min_pool_slots(&tree, 0);
        assert!(min <= 5, "caterpillar live set stays small, got {min}");
        let mut rec = LikelihoodEngine::with_pool(&tree, &aln, cfg, min);
        let got = rec.log_likelihood(&tree, 0);
        assert!((got - expect).abs() < 1e-10, "{got} vs {expect}");
    }

    #[test]
    fn balanced_tree_with_minimal_pool() {
        let names = default_names(16);
        let tree = balanced(&names, 0.1).unwrap();
        let aln = random_alignment(&tree, 40, &mut SmallRng::seed_from_u64(10));
        let cfg = EngineConfig::default();
        let mut full = LikelihoodEngine::new(&tree, &aln, cfg);
        let expect = full.log_likelihood(&tree, 0);
        // Balanced 16-taxon tree: live set grows with depth (~log n).
        let min = min_pool_slots(&tree, 0);
        assert!(min <= 8, "balanced live set is logarithmic, got {min}");
        let mut rec = LikelihoodEngine::with_pool(&tree, &aln, cfg, min);
        let got = rec.log_likelihood(&tree, 0);
        assert!((got - expect).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "at least 3 slots")]
    fn tiny_pool_rejected() {
        let (tree, aln) = dataset(8, 11);
        LikelihoodEngine::with_pool(&tree, &aln, EngineConfig::default(), 2);
    }

    #[test]
    fn site_repeats_bit_identical_under_memory_cap() {
        // Repeat-heavy alignment: 12 prototype columns cycled across 96
        // patterns, so every inner node sees heavy class collapse.
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(21);
        let names = default_names(10);
        let tree = random_tree(&names, 0.12, &mut rng).unwrap();
        let protos: Vec<Vec<usize>> = (0..12)
            .map(|_| (0..10).map(|_| rng.random_range(0..4usize)).collect())
            .collect();
        let rows: Vec<Vec<phylo_bio::DnaCode>> = (0..10)
            .map(|taxon| {
                (0..96)
                    .map(|p| phylo_bio::DnaCode::from_state(protos[p % 12][taxon]))
                    .collect()
            })
            .collect();
        let aln =
            CompressedAlignment::from_parts(tree.tip_names().to_vec(), rows, vec![1; 96]).unwrap();
        let cfg_of = |site_repeats| EngineConfig {
            site_repeats,
            ..EngineConfig::default()
        };
        let pool = min_pool_slots_any_root(&tree);
        for root in [0usize, 4, 9] {
            let mut off = LikelihoodEngine::with_pool(&tree, &aln, cfg_of(SiteRepeats::Off), pool);
            let mut on = LikelihoodEngine::with_pool(&tree, &aln, cfg_of(SiteRepeats::On), pool);
            let a = off.log_likelihood(&tree, root);
            let b = on.log_likelihood(&tree, root);
            assert_eq!(a.to_bits(), b.to_bits(), "root {root}: {a} vs {b}");
            assert!(
                on.repeat_stats().compressed_calls > 0,
                "compression engaged nothing at root {root}"
            );
        }
    }

    #[test]
    fn blocked_recompute_is_bit_identical_under_memory_cap() {
        // A minimal pool forces the batch to flush whenever acquiring a
        // slot would evict — the interaction this test pins.
        use crate::blocking::Blocking;
        let mut rng = SmallRng::seed_from_u64(17);
        let names = default_names(12);
        let tree = random_tree(&names, 0.12, &mut rng).unwrap();
        let sites = (crate::blocking::block_sites() + 40).min(4096);
        let aln = random_alignment(&tree, sites, &mut rng);
        let cfg_of = |blocking| EngineConfig {
            blocking,
            ..EngineConfig::default()
        };
        let pool = min_pool_slots_any_root(&tree);
        for root in [0usize, 7] {
            let mut off = LikelihoodEngine::with_pool(&tree, &aln, cfg_of(Blocking::Off), pool);
            let mut on = LikelihoodEngine::with_pool(&tree, &aln, cfg_of(Blocking::On), pool);
            let a = off.log_likelihood(&tree, root);
            let b = on.log_likelihood(&tree, root);
            assert_eq!(a.to_bits(), b.to_bits(), "root {root}: {a} vs {b}");
            assert_eq!(
                off.stats().get(KernelId::Newview).calls,
                on.stats().get(KernelId::Newview).calls,
                "root {root}: blocking changed the newview call count"
            );
        }
    }
}
