//! The timed operations: set-up, a cold evaluation and one search
//! under each parallel scheme, each with the reference it is checked
//! against.

use crate::ops::{same_bits, same_count, scheme_tolerance, within, CROSS_BACKEND_TOLERANCE};
use crate::timed::Timed;
use crate::workload::{Inputs, ALPHA};
use phylo_bio::{phylip, CompressedAlignment};
use phylo_models::GtrParams;
use phylo_parallel::{run_replicated_ft, ForkJoinEvaluator, FtConfig, ReplicatedOutcome};
use phylo_search::{Evaluator, MlSearch, SearchResult};
use phylo_tree::Tree;
use plf_core::{Blocking, EngineConfig, KernelKind, LikelihoodEngine, SiteRepeats};
use std::time::Instant;

/// Fork-join worker threads.
pub const WORKERS: usize = 2;

/// Replicated-search ranks (threads transport).
pub const RANKS: usize = 2;

/// The configuration `phylomic` runs by default: every mode `auto`.
pub fn default_config() -> EngineConfig {
    EngineConfig {
        alpha: ALPHA,
        ..EngineConfig::default()
    }
}

/// The default configuration with one compression mode overridden.
pub fn config_with(site_repeats: SiteRepeats, blocking: Blocking) -> EngineConfig {
    EngineConfig {
        site_repeats,
        blocking,
        ..default_config()
    }
}

/// What a log-likelihood computed under some configuration must agree
/// with.
#[derive(Clone, Copy, Debug)]
pub struct Reference {
    /// The same configuration with compression and blocking off; must
    /// match bit for bit.
    pub exact: f64,
    /// The scalar backend with compression and blocking off; must match
    /// within [`CROSS_BACKEND_TOLERANCE`] (the SIMD backend's fused
    /// multiply-adds round differently).
    pub scalar: f64,
}

impl Reference {
    /// The references for `tree` under `config` with `model`.
    pub fn of(
        config: EngineConfig,
        tree: &Tree,
        aln: &CompressedAlignment,
        model: GtrParams,
    ) -> Self {
        let logl = |config| {
            let mut engine = LikelihoodEngine::new(tree, aln, config);
            engine.set_model(model);
            engine.log_likelihood(tree, 0)
        };
        // The plain traversal that compression, blocking and root
        // folding must reproduce bit for bit.
        let plain = EngineConfig {
            site_repeats: SiteRepeats::Off,
            blocking: Blocking::Off,
            ..config
        };
        Reference {
            exact: logl(plain),
            scalar: logl(EngineConfig {
                kernel: KernelKind::Scalar,
                ..plain
            }),
        }
    }

    /// Checks `got` against both references.
    pub fn check(&self, what: &str, got: f64) -> Result<(), String> {
        same_bits(what, got, self.exact)?;
        within(
            &format!("{what} (scalar backend)"),
            got,
            self.scalar,
            CROSS_BACKEND_TOLERANCE * (1.0 + self.scalar.abs()),
        )
    }
}

/// Wall-clock seconds of each set-up step.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `phylip::parse_str`.
    pub parse: f64,
    /// `CompressedAlignment::from_alignment`.
    pub compress: f64,
    /// Drawing the random start tree.
    pub start_tree: f64,
    /// Serial `LikelihoodEngine::new`.
    pub engine_new: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.parse + self.compress + self.start_tree + self.engine_new
    }
}

/// A parsed, compressed alignment and the tree searches start from.
pub struct Data {
    /// The pattern-compressed alignment.
    pub compressed: CompressedAlignment,
    /// The search start tree.
    pub start: Tree,
}

/// A set-up workload: its data, a serial engine over the whole
/// alignment, and how long each step took.
pub struct Setup {
    /// Alignment and start tree.
    pub data: Data,
    /// Serial engine bound to the start tree.
    pub engine: LikelihoodEngine,
    /// Seconds per set-up step.
    pub times: SetupTimes,
}

/// Parses and compresses the alignment, draws the start tree and
/// builds the serial engine, timing each step.
pub fn setup(inputs: &Inputs, config: EngineConfig) -> Result<Setup, String> {
    let t = Instant::now();
    let aln = phylip::parse_str(&inputs.phylip).map_err(|e| e.to_string())?;
    let parse = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let compressed = CompressedAlignment::from_alignment(&aln);
    let compress = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let start = inputs.start_tree();
    let start_tree = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let engine = LikelihoodEngine::new(&start, &compressed, config);
    let engine_new = t.elapsed().as_secs_f64();
    Ok(Setup {
        data: Data { compressed, start },
        engine,
        times: SetupTimes {
            parse,
            compress,
            start_tree,
            engine_new,
        },
    })
}

/// A finished search.
pub struct SearchRun {
    /// What the search reported.
    pub result: SearchResult,
    /// The final tree.
    pub tree: Tree,
    /// Final Γ shape.
    pub alpha: f64,
    /// Final GTR parameters.
    pub model: GtrParams,
    /// Wall-clock seconds of the timed part.
    pub seconds: f64,
}

/// Runs `search` from `start` on `evaluator`, timing `MlSearch::run`
/// alone.
pub fn search_on<E: Evaluator>(evaluator: &mut E, start: &Tree, search: MlSearch) -> SearchRun {
    let mut tree = start.clone();
    let t = Instant::now();
    let result = search.run(evaluator, &mut tree);
    let seconds = t.elapsed().as_secs_f64();
    SearchRun {
        result,
        tree,
        alpha: evaluator.alpha(),
        model: evaluator.model(),
        seconds,
    }
}

/// Builds a fresh serial engine and runs the search on it.
pub fn search_serial(data: &Data, config: EngineConfig, search: MlSearch) -> SearchRun {
    let mut engine = LikelihoodEngine::new(&data.start, &data.compressed, config);
    search_on(&mut engine, &data.start, search)
}

/// `ForkJoinEvaluator::new` + the search + pool shutdown, all timed.
pub fn search_forkjoin(data: &Data, config: EngineConfig, search: MlSearch) -> SearchRun {
    let t = Instant::now();
    let mut fj = ForkJoinEvaluator::new(&data.start, &data.compressed, config, WORKERS);
    let mut run = search_on(&mut fj, &data.start, search);
    drop(fj);
    run.seconds = t.elapsed().as_secs_f64();
    run
}

/// A finished fork-join search through the timing decorator.
pub struct ForkJoinTrace {
    /// The search itself.
    pub run: SearchRun,
    /// The decorated pool after the search (its counters intact).
    pub pool: Timed<ForkJoinEvaluator>,
    /// `ForkJoinEvaluator::new`.
    pub spawn_s: f64,
}

/// A fork-join search through the timing decorator; the pool is
/// handed back so its counters can be read before it shuts down.
pub fn search_forkjoin_traced(
    data: &Data,
    config: EngineConfig,
    search: MlSearch,
) -> ForkJoinTrace {
    let t = Instant::now();
    let fj = ForkJoinEvaluator::new(&data.start, &data.compressed, config, WORKERS);
    let spawn_s = t.elapsed().as_secs_f64();
    let mut pool = Timed::new(fj);
    let run = search_on(&mut pool, &data.start, search);
    ForkJoinTrace { run, pool, spawn_s }
}

/// `run_replicated_ft` over the threads transport; returns the
/// outcome and its wall-clock seconds.
pub fn search_replicated(
    data: &Data,
    config: EngineConfig,
    search: MlSearch,
) -> Result<(ReplicatedOutcome, f64), String> {
    let t = Instant::now();
    let out = run_replicated_ft(
        &data.start,
        &data.compressed,
        config,
        search,
        &FtConfig::new(RANKS),
    )
    .map_err(|e| e.to_string())?;
    Ok((out, t.elapsed().as_secs_f64()))
}

/// A serial search run under `config` must report the log-likelihood
/// the [`Reference`] computes for its final tree and model.
pub fn check_serial(
    run: &SearchRun,
    aln: &CompressedAlignment,
    config: EngineConfig,
) -> Result<(), String> {
    let config = EngineConfig {
        alpha: run.alpha,
        ..config
    };
    Reference::of(config, &run.tree, aln, run.model)
        .check("serial search logL", run.result.log_likelihood)
}

/// A parallel search must match the serial one: log-likelihood within
/// [`scheme_tolerance`], identical round and move counts.
pub fn check_scheme(scheme: &str, got: &SearchResult, serial: &SearchResult) -> Result<(), String> {
    within(
        &format!("{scheme} logL"),
        got.log_likelihood,
        serial.log_likelihood,
        scheme_tolerance(serial.log_likelihood),
    )?;
    same_count(&format!("{scheme} rounds"), got.rounds, serial.rounds)?;
    same_count(
        &format!("{scheme} moves evaluated"),
        got.spr_evaluated,
        serial.spr_evaluated,
    )?;
    same_count(
        &format!("{scheme} moves accepted"),
        got.spr_accepted,
        serial.spr_accepted,
    )
}
