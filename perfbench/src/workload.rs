//! The benchmark's three workloads and their seeded inputs.
//!
//! Every input is generated in-process: a random generating tree,
//! DNA evolved down it by `phylo-seqgen` under GTR+Γ, rendered to
//! PHYLIP text (so set-up times the same parser `phylomic` runs on a
//! file), and a random start tree for the search. The same seed gives
//! byte-identical inputs.

use phylo_bio::phylip;
use phylo_models::{DiscreteGamma, Gtr, GtrParams};
use phylo_search::SearchConfig;
use phylo_tree::build::{default_names, random_tree};
use phylo_tree::Tree;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Γ shape the alignments are generated under; fixed-model workloads
/// also evaluate with it.
pub const ALPHA: f64 = 0.85;

/// GTR parameters the alignments are generated under (the values
/// `phylomic simulate` uses).
pub const GENERATING_MODEL: GtrParams = GtrParams {
    rates: [1.1, 2.6, 0.8, 1.2, 3.4, 1.0],
    freqs: [0.29, 0.21, 0.22, 0.28],
};

/// Mean branch length of the random search start tree (the
/// `phylomic search --start random` value).
const START_MEAN_BRANCH: f64 = 0.1;

/// Seed of the generating and start trees, which are part of a
/// workload's shape; `--seed` draws the alignment on them.
const TREE_SEED: u64 = 1;

/// Mixed into the seed of the start tree so it is drawn independently
/// of the generating tree.
const START_SALT: u64 = 0x5eed_57a7_7ee0_0001;

/// One benchmark workload: an input shape plus the search run on it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Taxa in the alignment.
    pub taxa: usize,
    /// Alignment columns before pattern compression.
    pub sites: usize,
    /// Mean branch length of the generating tree; short branches make
    /// columns (and per-node repeat classes) repeat.
    pub mean_branch: f64,
    /// Whether the search optimises α and the GTR rates.
    pub optimize_model: bool,
    /// Improvement rounds the search may run.
    pub max_rounds: usize,
    /// SPR regraft radius (the search default is 5).
    pub spr_radius: usize,
    /// Branch-smoothing passes per smoothing step (the default is 8).
    pub smoothing_passes: usize,
}

/// The workloads. `BENCHMARK.json` runs the first two; `small-64x1k`
/// is too unsteady on a shared 2-vCPU host for its bounds (see
/// README.md) and runs by hand.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "uniform-24x20k",
        taxa: 24,
        sites: 20_000,
        mean_branch: 0.12,
        optimize_model: false,
        max_rounds: 1,
        // Keeps one search near 3 s, so a run times each scheme
        // several times.
        spr_radius: 3,
        smoothing_passes: 2,
    },
    Workload {
        name: "repeats-32x20k",
        taxa: 32,
        sites: 20_000,
        mean_branch: 0.01,
        optimize_model: true,
        max_rounds: 1,
        // The default search: with 3k patterns it takes about 2-3 s,
        // like the shortened search on the uniform workload.
        spr_radius: 5,
        smoothing_passes: 8,
    },
    Workload {
        name: "small-64x1k",
        taxa: 64,
        sites: 1_000,
        mean_branch: 0.12,
        optimize_model: false,
        max_rounds: 1,
        spr_radius: 3,
        smoothing_passes: 2,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The search every scheme runs on this workload.
    pub fn search_config(&self) -> SearchConfig {
        SearchConfig {
            max_rounds: self.max_rounds,
            optimize_model: self.optimize_model,
            spr_radius: self.spr_radius,
            smoothing_passes: self.smoothing_passes,
            ..SearchConfig::default()
        }
    }

    /// Generates the workload's inputs from `seed`.
    pub fn generate(&self, seed: u64) -> Inputs {
        let names = default_names(self.taxa);
        let truth = random_tree(
            &names,
            self.mean_branch,
            &mut SmallRng::seed_from_u64(TREE_SEED),
        )
        .expect("a workload has at least three taxa");
        let mut rng = SmallRng::seed_from_u64(seed);
        let gtr = Gtr::new(GENERATING_MODEL);
        let gamma = DiscreteGamma::new(ALPHA);
        let aln =
            phylo_seqgen::simulate_alignment(&truth, gtr.eigen(), &gamma, self.sites, &mut rng);
        Inputs {
            phylip: phylip::to_string(&aln),
            truth,
            names,
            seed,
        }
    }
}

/// A workload's generated inputs.
pub struct Inputs {
    /// The alignment as PHYLIP text.
    pub phylip: String,
    /// The tree the alignment was generated on.
    pub truth: Tree,
    /// Taxon names, in tip order.
    pub names: Vec<String>,
    /// The seed the inputs came from.
    pub seed: u64,
}

impl Inputs {
    /// The seeded random tree every search starts from.
    pub fn start_tree(&self) -> Tree {
        let mut rng = SmallRng::seed_from_u64(TREE_SEED ^ START_SALT);
        random_tree(&self.names, START_MEAN_BRANCH, &mut rng)
            .expect("a workload has at least three taxa")
    }

    /// FNV-1a checksum of the PHYLIP text, for determinism checks.
    pub fn checksum(&self) -> u64 {
        self.phylip.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }
}
