//! The fork-join (RAxML-Light PThreads) scheme.
//!
//! A single master runs the search; the alignment patterns are split
//! into `n` contiguous slices, each owned by one [`LikelihoodEngine`].
//! The master owns slice 0 and `n − 1` persistent worker threads own
//! the rest, so `n` is the number of compute threads, the master
//! included — as in RAxML-Light, whose master computes its own share
//! of every region (§V-D). Every likelihood operation becomes a
//! parallel region: the master publishes one job in a shared slot,
//! releases the workers through the sense-reversing [`SenseBarrier`]
//! (*fork*), runs the same job on its own slice while each worker
//! writes its partial result into its own slot of a shared reply
//! array, and a second barrier pass (*join*) hands the array back to
//! the master, which reduces its own partial and the workers' in slice
//! order — "master and worker processes have to communicate at least
//! twice per parallel region/kernel" (§V-D), which is exactly the
//! synchronization cost `micsim` charges this scheme.
//!
//! There are no channels and no locks on the fast path: the barrier's
//! acquire/release pairs are the only synchronization, and the job and
//! reply slots are plain memory whose ownership alternates between
//! master and workers in barrier-separated windows — the
//! [`RegionProtocol`] extracted into [`crate::slot`], where the
//! interleave model tests exercise it directly. The master also times
//! every region: the fork barrier pass, and the join from the release
//! until all partials are back (its own slice included), so the
//! per-region fork/join latency distribution lands in [`KernelStats`]
//! next to the kernel timings.

use crate::barrier::BarrierToken;
use crate::fault::FaultPlan;
use crate::slot::RegionProtocol;
use crate::sync::thread::{self, JoinHandle};
use phylo_bio::CompressedAlignment;
use phylo_models::GtrParams;
use phylo_search::Evaluator;
use phylo_tree::{EdgeId, Tree};
use plf_core::{EngineConfig, KernelStats, LikelihoodEngine};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Splits `n` items into `k` contiguous, balanced ranges. When
/// `k > n`, the trailing ranges are empty — workers holding them
/// contribute identity partials (0 log-likelihood, 0 derivatives).
pub fn split_ranges(n: usize, k: usize) -> Vec<std::ops::Range<usize>> {
    assert!(k >= 1);
    (0..k).map(|i| (i * n / k)..((i + 1) * n / k)).collect()
}

/// One broadcast work item. The master writes it into the shared slot
/// before the fork barrier; the master and every worker read it (by
/// reference — the tree snapshot is shared through the `Arc`, not
/// cloned per thread) between fork and join.
#[derive(Default)]
enum Job {
    /// Initial state before the first region.
    #[default]
    Idle,
    Eval(Arc<Tree>, EdgeId),
    Prepare(Arc<Tree>, EdgeId),
    Derivatives(f64),
    SetAlpha(f64),
    SetModel(GtrParams),
    TakeStats,
    Shutdown,
}

impl Job {
    /// Span name a compute thread records while executing this job.
    fn span_name(&self) -> &'static str {
        match self {
            Job::Eval(..) => "job.eval",
            Job::Prepare(..) => "job.prepare",
            Job::Derivatives(_) => "job.derivatives",
            Job::SetAlpha(_) => "job.set_alpha",
            Job::SetModel(_) => "job.set_model",
            Job::TakeStats => "job.take_stats",
            Job::Idle | Job::Shutdown => "job.control",
        }
    }
}

/// One compute thread's partial result: a worker writes it into its
/// private slot of the shared reply array between fork and join; the
/// master keeps its own.
#[derive(Default)]
enum Reply {
    /// Slot not yet filled this region.
    #[default]
    None,
    Scalar(f64),
    Pair(f64, f64),
    Stats(Box<KernelStats>),
    Done,
    /// The job panicked (on a worker or on the master's own slice);
    /// the master re-panics with the message after the join instead
    /// of hanging or silently mis-reducing.
    Panicked(String),
}

/// Master handle of the fork-join scheme; implements
/// [`phylo_search::Evaluator`] so the unmodified search drives it.
pub struct ForkJoinEvaluator {
    shared: Arc<RegionProtocol<Job, Reply>>,
    handles: Vec<JoinHandle<()>>,
    token: BarrierToken,
    /// The master's own engine, over pattern slice 0.
    engine: LikelihoodEngine,
    fault_plan: Option<Arc<FaultPlan>>,
    /// Master-side stats: fork/join latency of every parallel region.
    local: KernelStats,
    alpha: f64,
    params: GtrParams,
    /// Parallel regions dispatched (each costs one fork + one join
    /// synchronization).
    regions: u64,
}

impl ForkJoinEvaluator {
    /// Splits the patterns into `num_workers` balanced slices: the
    /// master computes slice 0 and `num_workers − 1` spawned workers
    /// the rest (`num_workers == 1` spawns no thread). Counts beyond
    /// the pattern count are fine: the surplus slices are empty and
    /// return identity partials.
    pub fn new(
        tree: &Tree,
        aln: &CompressedAlignment,
        config: EngineConfig,
        num_workers: usize,
    ) -> Self {
        Self::with_fault_plan(tree, aln, config, num_workers, None)
    }

    /// Like [`Self::new`], but with a scripted [`FaultPlan`] whose
    /// job-panic faults fire inside the matching rank's job — rank 0
    /// is the master's own slice — caught and surfaced like any other
    /// job panic, never a hang.
    pub fn with_fault_plan(
        tree: &Tree,
        aln: &CompressedAlignment,
        config: EngineConfig,
        num_workers: usize,
        fault_plan: Option<Arc<FaultPlan>>,
    ) -> Self {
        assert!(num_workers >= 1);
        let shared = Arc::new(RegionProtocol::new(num_workers - 1, Job::Idle));
        plf_core::span::set_thread_label("master");
        plf_core::metrics::gauge("forkjoin.workers").set(num_workers as u64);
        let mut engines = split_ranges(aln.num_patterns(), num_workers)
            .into_iter()
            .enumerate()
            .map(|(rank, range)| {
                // Expose the static pattern partition: the spread of
                // these gauges is the load-imbalance bound the paper's
                // Fig. 4 efficiency discussion starts from.
                plf_core::metrics::gauge(&format!("forkjoin.worker.{rank}.sites"))
                    .set(range.len() as u64);
                LikelihoodEngine::with_range(tree, aln, config, range)
            });
        let engine = engines.next().expect("at least one slice");
        let handles = engines
            .zip(1..)
            .map(|(engine, rank)| {
                let shared = Arc::clone(&shared);
                let plan = fault_plan.clone();
                thread::spawn(move || {
                    // If the worker unwinds outside the caught job
                    // region, mark the protocol dead so the master's
                    // fork/join fails instead of spinning forever.
                    let guard = PoisonOnUnwind {
                        proto: &shared,
                        rank,
                    };
                    worker_loop(&shared, rank, engine, plan.as_deref());
                    std::mem::forget(guard);
                })
            })
            .collect();
        ForkJoinEvaluator {
            shared,
            handles,
            token: BarrierToken::new(),
            engine,
            fault_plan,
            local: KernelStats::new(),
            alpha: config.alpha,
            params: GtrParams {
                rates: [1.0; 6],
                freqs: aln.empirical_frequencies(),
            },
            regions: 0,
        }
    }

    /// Number of compute threads, the master included.
    pub fn num_workers(&self) -> usize {
        self.handles.len() + 1
    }

    /// Parallel regions dispatched so far.
    pub fn regions(&self) -> u64 {
        self.regions
    }

    /// Master-side statistics: the fork/join latency histogram of
    /// every parallel region (the kernel counters live in the
    /// per-slice engines; see [`Self::take_stats`]).
    pub fn master_stats(&self) -> &KernelStats {
        &self.local
    }

    /// Runs one parallel region: publish `job`, fork, run the job on
    /// the master's own slice, join, collect the replies in slice
    /// order (master first). The fork pass and the join — from the
    /// release until every partial is back, the master's own slice
    /// included — are timed into the region-latency stats.
    ///
    /// # Panics
    /// Re-panics with the job's message if any rank's job panicked,
    /// after the region completes — the pool itself stays joinable,
    /// so `Drop` still shuts the workers down cleanly. A worker that
    /// *died* (unwound outside the caught job region) poisons the
    /// protocol; the master then panics with a rank-naming message
    /// instead of hanging at the barrier.
    fn region(&mut self, job: Job) -> Vec<Reply> {
        self.regions += 1;
        regions_counter().inc();
        self.shared.publish_job(job);
        let t0 = Instant::now();
        {
            let _fork = plf_core::span::enter("fork.wait");
            if let Err(p) = self.shared.fork(&mut self.token) {
                panic!("fork-join worker {} died; pool is poisoned", p.rank);
            }
        }
        let t1 = Instant::now();
        let (region, plan) = (self.regions, self.fault_plan.as_deref());
        let mine = self
            .shared
            .read_job(|job| run_job(&mut self.engine, job, 0, region, plan));
        {
            let _join = plf_core::span::enter("join.wait");
            if let Err(p) = self.shared.join(&mut self.token) {
                panic!("fork-join worker {} died; pool is poisoned", p.rank);
            }
        }
        let t2 = Instant::now();
        self.local
            .record_region(saturating_ns(t1 - t0), saturating_ns(t2 - t1));
        let mut replies = Vec::with_capacity(self.num_workers());
        replies.push(mine);
        replies.extend(self.shared.drain_replies());
        if let Some(Reply::Panicked(msg)) = replies.iter().find(|r| matches!(r, Reply::Panicked(_)))
        {
            panic!("fork-join worker panicked: {msg}");
        }
        replies
    }

    /// Collects and resets per-slice kernel statistics, merged
    /// together with the master's region-latency stats.
    pub fn take_stats(&mut self) -> KernelStats {
        let mut total = KernelStats::new();
        for s in self.take_stats_per_worker() {
            total.merge(&s);
        }
        total.merge(&self.local);
        self.local.reset();
        total
    }

    /// Collects and resets per-slice kernel statistics, one entry per
    /// compute thread in slice order (the master's first). Master-side
    /// region latencies stay in [`Self::master_stats`] (use
    /// [`Self::take_stats`] for the merged view).
    pub fn take_stats_per_worker(&mut self) -> Vec<KernelStats> {
        self.region(Job::TakeStats)
            .into_iter()
            .map(|r| match r {
                Reply::Stats(s) => *s,
                _ => unreachable!("stats job returns stats"),
            })
            .collect()
    }
}

/// `Duration` → `u64` nanoseconds, saturating.
fn saturating_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Cached handle for the `forkjoin.regions` counter.
fn regions_counter() -> &'static plf_core::metrics::Counter {
    static C: std::sync::OnceLock<plf_core::metrics::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| plf_core::metrics::counter("forkjoin.regions"))
}

/// Best-effort extraction of a panic payload message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Drop guard a worker arms for its whole run: leaked (`mem::forget`)
/// on the normal shutdown path, it only ever drops during an unwind —
/// where it poisons the protocol so the master and siblings fail fast
/// instead of deadlocking at the next barrier pass.
struct PoisonOnUnwind<'a> {
    proto: &'a RegionProtocol<Job, Reply>,
    rank: usize,
}

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        self.proto.poison(self.rank);
    }
}

/// Runs one broadcast job against a slice engine on behalf of `rank`
/// (0 = the master) in its `region`-th region. A panic — a real one or
/// one the fault plan injects — is caught and returned as
/// [`Reply::Panicked`], so the caller still reaches the join barrier.
fn run_job(
    engine: &mut LikelihoodEngine,
    job: &Job,
    rank: usize,
    region: u64,
    fault_plan: Option<&FaultPlan>,
) -> Reply {
    let _job_span = plf_core::span::enter(job.span_name());
    catch_unwind(AssertUnwindSafe(|| {
        if let Some(plan) = fault_plan {
            if plan.job_panics(rank, region) {
                panic!("injected fault: rank {rank} panics in region {region}");
            }
        }
        match job {
            Job::Eval(tree, edge) => Reply::Scalar(engine.log_likelihood(tree, *edge)),
            Job::Prepare(tree, edge) => {
                engine.prepare_branch(tree, *edge);
                Reply::Done
            }
            Job::Derivatives(t) => {
                let (d1, d2) = engine.branch_derivatives(*t);
                Reply::Pair(d1, d2)
            }
            Job::SetAlpha(a) => {
                engine.set_alpha(*a);
                Reply::Done
            }
            Job::SetModel(p) => {
                engine.set_model(*p);
                Reply::Done
            }
            Job::TakeStats => {
                let s = engine.stats().clone();
                engine.reset_stats();
                Reply::Stats(Box::new(s))
            }
            Job::Idle | Job::Shutdown => unreachable!("not dispatched as work"),
        }
    }))
    .unwrap_or_else(|p| Reply::Panicked(panic_message(p)))
}

/// The worker side of the protocol: wait at the fork barrier, run the
/// broadcast job against the worker's engine slice, publish the
/// partial result into reply slot `rank − 1`, wait at the join
/// barrier. A panicking job is caught by [`run_job`]; the worker stays
/// in the loop so neither barrier ever deadlocks. A poisoned barrier
/// pass (a sibling died) makes the worker exit cleanly.
fn worker_loop(
    proto: &RegionProtocol<Job, Reply>,
    rank: usize,
    mut engine: LikelihoodEngine,
    fault_plan: Option<&FaultPlan>,
) {
    plf_core::span::set_thread_label(&format!("worker{rank}"));
    let mut token = BarrierToken::new();
    let mut region: u64 = 0;
    loop {
        {
            let _idle = plf_core::span::enter("idle");
            if proto.fork(&mut token).is_err() {
                return;
            }
        }
        region += 1;
        // `None` means Shutdown: exit before the join barrier (the
        // master skips it too).
        let reply = proto.read_job(|job| {
            (!matches!(job, Job::Shutdown))
                .then(|| run_job(&mut engine, job, rank, region, fault_plan))
        });
        let Some(reply) = reply else {
            return;
        };
        proto.write_reply(rank - 1, reply);
        if proto.join(&mut token).is_err() {
            return;
        }
    }
}

impl Evaluator for ForkJoinEvaluator {
    fn log_likelihood(&mut self, tree: &Tree, root_edge: EdgeId) -> f64 {
        let snapshot = Arc::new(tree.clone());
        self.region(Job::Eval(snapshot, root_edge))
            .into_iter()
            .map(|r| match r {
                Reply::Scalar(x) => x,
                _ => unreachable!("eval returns scalar"),
            })
            .sum()
    }

    fn prepare_branch(&mut self, tree: &Tree, edge: EdgeId) {
        let snapshot = Arc::new(tree.clone());
        self.region(Job::Prepare(snapshot, edge));
    }

    fn branch_derivatives(&mut self, t: f64) -> (f64, f64) {
        let mut d1 = 0.0;
        let mut d2 = 0.0;
        for r in self.region(Job::Derivatives(t)) {
            match r {
                Reply::Pair(a, b) => {
                    d1 += a;
                    d2 += b;
                }
                _ => unreachable!("derivatives return a pair"),
            }
        }
        (d1, d2)
    }

    fn set_alpha(&mut self, alpha: f64) {
        self.alpha = alpha;
        self.region(Job::SetAlpha(alpha));
    }

    fn set_model(&mut self, params: GtrParams) {
        self.params = params;
        self.region(Job::SetModel(params));
    }

    fn alpha(&self) -> f64 {
        self.alpha
    }

    fn model(&self) -> GtrParams {
        self.params
    }
}

impl Drop for ForkJoinEvaluator {
    fn drop(&mut self) {
        // Every worker is blocked at the fork barrier — including
        // workers whose last job panicked (the panic was caught and
        // the worker kept cycling). Publish Shutdown and release them;
        // they exit before the join barrier, so the master must not
        // wait at it either. On a poisoned pool the fork fails
        // immediately and the workers have already exited through
        // their own poisoned barrier passes — joining stays safe.
        self.shared.publish_job(Job::Shutdown);
        let _ = self.shared.fork(&mut self.token);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_models::{DiscreteGamma, Gtr};
    use phylo_tree::build::{default_names, random_tree};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn dataset() -> (Tree, CompressedAlignment) {
        let mut rng = SmallRng::seed_from_u64(60);
        let names = default_names(9);
        let tree = random_tree(&names, 0.15, &mut rng).unwrap();
        let g = Gtr::new(GtrParams::jc69());
        let gamma = DiscreteGamma::new(0.9);
        let aln = phylo_seqgen::simulate_alignment(&tree, g.eigen(), &gamma, 700, &mut rng);
        (tree, CompressedAlignment::from_alignment(&aln))
    }

    fn small_dataset(patterns_target: usize) -> (Tree, CompressedAlignment) {
        let mut rng = SmallRng::seed_from_u64(61);
        let names = default_names(5);
        let tree = random_tree(&names, 0.2, &mut rng).unwrap();
        let g = Gtr::new(GtrParams::jc69());
        let gamma = DiscreteGamma::new(1.1);
        let aln =
            phylo_seqgen::simulate_alignment(&tree, g.eigen(), &gamma, patterns_target, &mut rng);
        (tree, CompressedAlignment::from_alignment(&aln))
    }

    #[test]
    fn split_ranges_cover_everything() {
        for (n, k) in [(10, 3), (7, 7), (100, 8), (5, 1), (3, 5)] {
            let ranges = split_ranges(n, k);
            assert_eq!(ranges.len(), k);
            let total: usize = ranges.iter().map(|r| r.len()).sum();
            assert_eq!(total, n);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges[k - 1].end, n);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
    }

    #[test]
    fn split_ranges_more_workers_than_items() {
        let ranges = split_ranges(2, 6);
        assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), 2);
        assert!(ranges.iter().any(|r| r.is_empty()));
        // Still a valid contiguous partition.
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn matches_single_engine_likelihood() {
        let (tree, aln) = dataset();
        let cfg = EngineConfig::default();
        let mut single = LikelihoodEngine::new(&tree, &aln, cfg);
        for workers in [1, 2, 4] {
            let mut fj = ForkJoinEvaluator::new(&tree, &aln, cfg, workers);
            for e in [0usize, 3, 7] {
                let a = single.log_likelihood(&tree, e);
                let b = fj.log_likelihood(&tree, e);
                assert!(
                    (a - b).abs() < 1e-9,
                    "workers={workers} edge={e}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn simd_backend_under_forkjoin_matches_scalar_serial() {
        // Workers stream their newview CLAs with non-temporal stores;
        // the kernel-exit sfence must publish them before the barrier
        // hands control back to the master, or this cross-thread
        // comparison could read stale CLA contents.
        use plf_core::KernelKind;
        let (tree, aln) = dataset();
        let mut scalar = LikelihoodEngine::new(
            &tree,
            &aln,
            EngineConfig {
                kernel: KernelKind::Scalar,
                ..EngineConfig::default()
            },
        );
        let cfg = EngineConfig {
            kernel: KernelKind::Simd,
            ..EngineConfig::default()
        };
        for workers in [2, 4] {
            let mut fj = ForkJoinEvaluator::new(&tree, &aln, cfg, workers);
            for e in [0usize, 2, 5] {
                let a = scalar.log_likelihood(&tree, e);
                let b = fj.log_likelihood(&tree, e);
                assert!(
                    (a - b).abs() < 1e-9,
                    "workers={workers} edge={e}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn matches_single_engine_derivatives() {
        let (tree, aln) = dataset();
        let cfg = EngineConfig::default();
        let mut single = LikelihoodEngine::new(&tree, &aln, cfg);
        let mut fj = ForkJoinEvaluator::new(&tree, &aln, cfg, 3);
        for e in [1usize, 5] {
            Evaluator::prepare_branch(&mut single, &tree, e);
            fj.prepare_branch(&tree, e);
            let t = tree.length(e);
            let (a1, a2) = Evaluator::branch_derivatives(&mut single, t);
            let (b1, b2) = fj.branch_derivatives(t);
            assert!((a1 - b1).abs() < 1e-8, "{a1} vs {b1}");
            assert!((a2 - b2).abs() < 1e-8, "{a2} vs {b2}");
        }
    }

    #[test]
    fn more_workers_than_patterns_is_exact_not_nan() {
        let (tree, aln) = small_dataset(40);
        let n = aln.num_patterns();
        let cfg = EngineConfig::default();
        let mut single = LikelihoodEngine::new(&tree, &aln, cfg);
        let expect = single.log_likelihood(&tree, 0);
        Evaluator::prepare_branch(&mut single, &tree, 1);
        let (e1, e2) = Evaluator::branch_derivatives(&mut single, tree.length(1));
        // Strictly more workers than patterns: surplus workers own
        // empty slices and must contribute exact identity partials.
        for workers in [n + 1, n + 5, 2 * n] {
            let mut fj = ForkJoinEvaluator::new(&tree, &aln, cfg, workers);
            let got = fj.log_likelihood(&tree, 0);
            assert!(got.is_finite(), "workers={workers}: logL {got}");
            assert!(
                (got - expect).abs() < 1e-9,
                "workers={workers}: {got} vs {expect}"
            );
            fj.prepare_branch(&tree, 1);
            let (d1, d2) = fj.branch_derivatives(tree.length(1));
            assert!(d1.is_finite() && d2.is_finite(), "workers={workers}");
            assert!((d1 - e1).abs() < 1e-8, "workers={workers}: {d1} vs {e1}");
            assert!((d2 - e2).abs() < 1e-8, "workers={workers}: {d2} vs {e2}");
        }
    }

    #[test]
    fn model_updates_propagate() {
        let (tree, aln) = dataset();
        let cfg = EngineConfig::default();
        let mut fj = ForkJoinEvaluator::new(&tree, &aln, cfg, 2);
        let l1 = fj.log_likelihood(&tree, 0);
        fj.set_alpha(0.2);
        let l2 = fj.log_likelihood(&tree, 0);
        assert!((l1 - l2).abs() > 1e-6, "alpha change must shift likelihood");
        assert_eq!(fj.alpha(), 0.2);
    }

    #[test]
    fn stats_account_all_workers() {
        let (tree, aln) = dataset();
        let mut fj = ForkJoinEvaluator::new(&tree, &aln, EngineConfig::default(), 4);
        fj.log_likelihood(&tree, 0);
        let stats = fj.take_stats();
        // All pattern-sites processed exactly once per newview level:
        // total evaluate sites equals the full pattern count.
        assert_eq!(
            stats.get(plf_core::KernelId::Evaluate).sites as usize,
            aln.num_patterns()
        );
        assert_eq!(stats.get(plf_core::KernelId::Evaluate).calls, 4);
        // Regions: eval + stats = 2 so far.
        assert_eq!(fj.regions(), 2);
        // Both regions' fork/join latencies were recorded and merged
        // into the combined stats.
        assert_eq!(stats.regions().count, 2);
        assert_eq!(stats.regions().fork.count(), 2);
        assert_eq!(stats.regions().join.count(), 2);
    }

    #[test]
    fn per_worker_stats_sum_to_merged() {
        let (tree, aln) = dataset();
        let mut fj = ForkJoinEvaluator::new(&tree, &aln, EngineConfig::default(), 3);
        fj.log_likelihood(&tree, 0);
        let per = fj.take_stats_per_worker();
        assert_eq!(per.len(), 3);
        let sites: u64 = per
            .iter()
            .map(|s| s.get(plf_core::KernelId::Evaluate).sites)
            .sum();
        assert_eq!(sites as usize, aln.num_patterns());
        // Each worker timed its own evaluate call.
        for s in &per {
            assert_eq!(s.timing(plf_core::KernelId::Evaluate).count(), 1);
        }
        // Region latencies live master-side.
        assert_eq!(fj.master_stats().regions().count, 2);
    }

    #[test]
    fn worker_panic_surfaces_as_error_not_hang() {
        let (tree, aln) = dataset();
        let cfg = EngineConfig::default();
        let mut fj = ForkJoinEvaluator::new(&tree, &aln, cfg, 3);
        // An out-of-range edge makes every worker's engine panic
        // inside the job; the master must observe a panic promptly
        // rather than deadlock on the join barrier, and Drop must
        // still shut the pool down.
        let bogus_edge = tree.num_edges() + 100;
        let res =
            std::panic::catch_unwind(AssertUnwindSafe(|| fj.log_likelihood(&tree, bogus_edge)));
        let err = res.expect_err("bogus edge must fail loudly");
        let msg = panic_message(err);
        assert!(
            msg.contains("fork-join worker panicked"),
            "unexpected message: {msg}"
        );
        // The pool survived the failed region: further work and a
        // clean Drop both still complete.
        let l = fj.log_likelihood(&tree, 0);
        assert!(l.is_finite());
        drop(fj);
    }

    #[test]
    fn master_only_pool_spawns_no_thread() {
        let (tree, aln) = dataset();
        let fj = ForkJoinEvaluator::new(&tree, &aln, EngineConfig::default(), 1);
        assert!(fj.handles.is_empty());
        assert_eq!(fj.num_workers(), 1);
    }

    #[test]
    fn master_only_search_is_bit_identical_to_serial() {
        let (tree0, aln) = dataset();
        let names = tree0.tip_names().to_vec();
        let start = random_tree(&names, 0.1, &mut SmallRng::seed_from_u64(5)).unwrap();
        let cfg = EngineConfig::default();
        let search = phylo_search::MlSearch::new(phylo_search::SearchConfig {
            max_rounds: 2,
            optimize_model: true,
            ..Default::default()
        });

        let mut t_serial = start.clone();
        let mut serial = LikelihoodEngine::new(&t_serial, &aln, cfg);
        let r_serial = search.run(&mut serial, &mut t_serial);

        let mut t_fj = start.clone();
        let mut fj = ForkJoinEvaluator::new(&t_fj, &aln, cfg, 1);
        let r_fj = search.run(&mut fj, &mut t_fj);

        assert_eq!(
            r_serial.log_likelihood.to_bits(),
            r_fj.log_likelihood.to_bits(),
            "{} vs {}",
            r_serial.log_likelihood,
            r_fj.log_likelihood
        );
        assert_eq!(r_serial.rounds, r_fj.rounds);
        assert_eq!(r_serial.spr_evaluated, r_fj.spr_evaluated);
        assert_eq!(r_serial.spr_accepted, r_fj.spr_accepted);
        assert_eq!(t_serial.rf_distance(&t_fj), 0);
    }

    #[test]
    fn partials_reduce_in_slice_order_bit_for_bit() {
        let (tree, aln) = dataset();
        let cfg = EngineConfig::default();
        for n in [2, 3] {
            let mut slices: Vec<LikelihoodEngine> = split_ranges(aln.num_patterns(), n)
                .into_iter()
                .map(|r| LikelihoodEngine::with_range(&tree, &aln, cfg, r))
                .collect();
            let mut fj = ForkJoinEvaluator::new(&tree, &aln, cfg, n);
            for e in [0usize, 4] {
                let expect: f64 = slices.iter_mut().map(|s| s.log_likelihood(&tree, e)).sum();
                let got = fj.log_likelihood(&tree, e);
                assert_eq!(got.to_bits(), expect.to_bits(), "n={n} edge={e}");

                let (mut e1, mut e2) = (0.0, 0.0);
                for s in &mut slices {
                    Evaluator::prepare_branch(s, &tree, e);
                    let (a, b) = Evaluator::branch_derivatives(s, tree.length(e));
                    e1 += a;
                    e2 += b;
                }
                fj.prepare_branch(&tree, e);
                let (d1, d2) = fj.branch_derivatives(tree.length(e));
                assert_eq!(d1.to_bits(), e1.to_bits(), "n={n} edge={e}: d1");
                assert_eq!(d2.to_bits(), e2.to_bits(), "n={n} edge={e}: d2");
            }
        }
    }

    #[test]
    fn master_slice_panic_surfaces_like_worker_panic() {
        let (tree, aln) = dataset();
        let plan = Arc::new(FaultPlan::job_panic(0, 2));
        let mut fj =
            ForkJoinEvaluator::with_fault_plan(&tree, &aln, EngineConfig::default(), 3, Some(plan));
        let expect = fj.log_likelihood(&tree, 0);
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| fj.log_likelihood(&tree, 0)));
        let msg = panic_message(res.expect_err("the master's injected fault must surface"));
        assert!(
            msg.contains("fork-join worker panicked"),
            "unexpected message: {msg}"
        );
        assert!(msg.contains("rank 0"), "unexpected message: {msg}");
        // The pool serves the next region and shuts down cleanly.
        assert_eq!(fj.log_likelihood(&tree, 0).to_bits(), expect.to_bits());
        drop(fj);
    }

    #[test]
    fn full_search_under_forkjoin_matches_serial() {
        let (tree0, aln) = dataset();
        let names = tree0.tip_names().to_vec();
        let start = random_tree(&names, 0.1, &mut SmallRng::seed_from_u64(2)).unwrap();
        let cfg = EngineConfig::default();
        let search = phylo_search::MlSearch::new(phylo_search::SearchConfig {
            max_rounds: 3,
            optimize_model: false,
            ..Default::default()
        });

        let mut t_serial = start.clone();
        let mut serial = LikelihoodEngine::new(&t_serial, &aln, cfg);
        let r_serial = search.run(&mut serial, &mut t_serial);

        let mut t_fj = start.clone();
        let mut fj = ForkJoinEvaluator::new(&t_fj, &aln, cfg, 3);
        let r_fj = search.run(&mut fj, &mut t_fj);

        assert_eq!(t_serial.rf_distance(&t_fj), 0);
        assert!(
            (r_serial.log_likelihood - r_fj.log_likelihood).abs() < 1e-7,
            "{} vs {}",
            r_serial.log_likelihood,
            r_fj.log_likelihood
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]
        /// Fork-join log-likelihood equals the single engine to 1e-9
        /// for every worker count from 1 to twice the pattern count
        /// (sampled), including the empty-slice regime.
        fn forkjoin_matches_single_for_any_worker_count(
            seed in 0u64..1_000,
            len in 20usize..120,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let names = default_names(6);
            let tree = random_tree(&names, 0.2, &mut rng).unwrap();
            let g = Gtr::new(GtrParams::jc69());
            let gamma = DiscreteGamma::new(0.8);
            let aln = phylo_seqgen::simulate_alignment(&tree, g.eigen(), &gamma, len, &mut rng);
            let aln = CompressedAlignment::from_alignment(&aln);
            let n = aln.num_patterns();
            let cfg = EngineConfig::default();
            let mut single = LikelihoodEngine::new(&tree, &aln, cfg);
            let expect = single.log_likelihood(&tree, 0);
            use rand::Rng;
            for _ in 0..3 {
                let workers = rng.random_range(1..=2 * n);
                let mut fj = ForkJoinEvaluator::new(&tree, &aln, cfg, workers);
                let got = fj.log_likelihood(&tree, 0);
                proptest::prop_assert!(
                    (got - expect).abs() < 1e-9,
                    "workers={} n={}: {} vs {}", workers, n, got, expect
                );
            }
        }
    }
}
