//! The two passes over a workload: the untraced pass reports the
//! end-to-end metrics, the traced pass the per-layer breakdown.
//!
//! Both repeat their operations until the time budget is spent
//! (always at least once) and report medians, so one slow repetition
//! on a shared host does not move a figure.

use crate::bench::{
    check_scheme, check_serial, config_with, default_config, search_forkjoin,
    search_forkjoin_traced, search_on, search_replicated, search_serial, setup, ForkJoinTrace,
    Reference, SearchRun, Setup,
};
use crate::ops::{same_bits, same_count, Ops};
use crate::report::{median, Metrics};
use crate::timed::{Call, Timed};
use crate::workload::{Inputs, Workload, ALPHA};
use phylo_parallel::ReplicatedOutcome;
use phylo_search::{Evaluator, MlSearch, SearchResult};
use plf_core::{Blocking, EngineConfig, KernelId, KernelOp, KernelStats, SiteRepeats};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups timed in each block. A set-up is short and the host's speed
/// drifts over seconds, so set-ups are sampled in small blocks spread
/// over the whole run (one before each search); a block reports its
/// fastest sample, which drops the ones a burst of host contention
/// slowed.
const SETUPS_PER_BLOCK: usize = 16;

/// Runs `pass` at least once, then again while another repetition
/// (predicted from the mean so far) still ends within `seconds`.
fn repeat_for(seconds: f64, mut pass: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let start = Instant::now();
    let mut reps = 0.0;
    loop {
        pass()?;
        reps += 1.0;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / reps > seconds {
            return Ok(());
        }
    }
}

/// Times one block of set-ups into `samples`; returns the last set-up
/// for the search that follows.
fn setup_block(
    inputs: &Inputs,
    config: EngineConfig,
    samples: &mut Vec<f64>,
) -> Result<Setup, String> {
    let mut s = setup(inputs, config)?;
    let mut best = s.times.total();
    for _ in 1..SETUPS_PER_BLOCK {
        drop(s);
        s = setup(inputs, config)?;
        best = best.min(s.times.total());
    }
    samples.push(best);
    Ok(s)
}

/// The untraced pass: a block of set-ups before each of the three
/// searches (serial, fork-join, replicated), repeated for `seconds`.
pub fn untraced(
    w: &Workload,
    inputs: &Inputs,
    seconds: f64,
    ops: &mut Ops,
) -> Result<Metrics, String> {
    let config = default_config();
    let search = MlSearch::new(w.search_config());
    let mut setup_s = Vec::new();
    let (mut serial_s, mut forkjoin_s, mut replicated_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut logl = f64::NAN;
    repeat_for(seconds, || {
        let serial = {
            let s = setup_block(inputs, config, &mut setup_s)?;
            ops.run("serial search", || {
                let run = search_serial(&s.data, config, search);
                check_serial(&run, &s.data.compressed, config).map(|()| run)
            })
        };
        if let Some(run) = &serial {
            serial_s.push(run.seconds);
            logl = run.result.log_likelihood;
        }
        let serial = serial.map(|r| r.result);
        {
            let s = setup_block(inputs, config, &mut setup_s)?;
            if let Some(t) = ops.run("fork-join search", || {
                let run = search_forkjoin(&s.data, config, search);
                check_against("fork-join", &run.result, serial.as_ref()).map(|()| run.seconds)
            }) {
                forkjoin_s.push(t);
            }
        }
        let s = setup_block(inputs, config, &mut setup_s)?;
        if let Some(t) = ops.run("replicated search", || {
            let (out, t) = search_replicated(&s.data, config, search)?;
            check_against("replicated", &out.result, serial.as_ref()).map(|()| t)
        }) {
            replicated_s.push(t);
        }
        Ok(())
    })?;
    let mut m = Metrics::default();
    m.push("setup_s", median(&setup_s), "s");
    m.push("search_serial_s", median(&serial_s), "s");
    m.push("search_forkjoin_s", median(&forkjoin_s), "s");
    m.push("search_replicated_s", median(&replicated_s), "s");
    m.push("search_neg_logl", -logl, "nat");
    m.push("peak_rss_mib", peak_rss_mib(), "MiB");
    Ok(m)
}

/// A parallel result checked against the serial one of the same
/// repetition; without a serial result there is nothing to trust.
fn check_against(
    scheme: &str,
    got: &SearchResult,
    serial: Option<&SearchResult>,
) -> Result<(), String> {
    let serial = serial.ok_or("no serial result to check against (serial search failed)")?;
    check_scheme(scheme, got, serial)
}

/// Two runs of one search that must be bit-identical: same
/// log-likelihood bits, same round and move counts.
fn check_identical(what: &str, got: &SearchRun, want: &SearchRun) -> Result<(), String> {
    same_bits(
        &format!("{what} logL"),
        got.result.log_likelihood,
        want.result.log_likelihood,
    )?;
    same_count(
        &format!("{what} rounds"),
        got.result.rounds,
        want.result.rounds,
    )?;
    same_count(
        &format!("{what} moves evaluated"),
        got.result.spr_evaluated,
        want.result.spr_evaluated,
    )?;
    same_count(
        &format!("{what} moves accepted"),
        got.result.spr_accepted,
        want.result.spr_accepted,
    )
}

/// Seconds of kernel time in `stats`, per kernel and in total.
fn kernel_seconds(stats: &KernelStats, kernel: KernelId) -> f64 {
    stats.timing(kernel).total_ns() as f64 * 1e-9
}

fn total_kernel_seconds(stats: &KernelStats) -> f64 {
    KernelId::ALL
        .iter()
        .map(|&k| kernel_seconds(stats, k))
        .sum()
}

/// The traced pass: every layer's share of set-up, a cold evaluation
/// and the search under each scheme, plus same-run `auto`/`off`
/// ratios, repeated for `seconds`; each metric is the median over
/// repetitions.
pub fn traced(
    w: &Workload,
    inputs: &Inputs,
    seconds: f64,
    ops: &mut Ops,
) -> Result<Metrics, String> {
    let mut reps: Vec<Metrics> = Vec::new();
    repeat_for(seconds, || {
        reps.push(traced_rep(w, inputs, ops)?);
        Ok(())
    })?;
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for rep in &reps {
        for metric in &rep.0 {
            by_name.entry(&metric.name).or_default().push(metric.value);
        }
    }
    let mut m = Metrics::default();
    for metric in &reps[0].0 {
        m.push(
            metric.name.clone(),
            median(&by_name[metric.name.as_str()]),
            metric.unit,
        );
    }
    Ok(m)
}

fn traced_rep(w: &Workload, inputs: &Inputs, ops: &mut Ops) -> Result<Metrics, String> {
    let config = default_config();
    let search = MlSearch::new(w.search_config());
    let mut m = Metrics::default();

    // Serial: set-up, one cold evaluation and the search, all on one
    // engine behind the timing decorator.
    let pass = Instant::now();
    let Setup {
        data,
        engine,
        times,
    } = setup(inputs, config)?;
    let mut engine = Timed::new(engine);
    engine.inner_mut().invalidate_all();
    let eval_ll = engine.log_likelihood(&inputs.truth, 0);
    let evaluate_s = engine.total_seconds();
    // Hand the search its starting model explicitly, as a checkpoint
    // resume does; the values are unchanged, so the search is too.
    let start_model = engine.model();
    engine.set_model(start_model);
    engine.set_alpha(ALPHA);
    let before_search_s = engine.total_seconds();
    let traced = search_on(&mut engine, &data.start, search);
    let serial_wall = pass.elapsed().as_secs_f64();

    let eval_want = Reference::of(config, &inputs.truth, &data.compressed, start_model);
    ops.run("evaluate", || eval_want.check("evaluate logL", eval_ll));
    let traced = ops.run("traced serial search", || {
        check_serial(&traced, &data.compressed, config).map(|()| traced)
    });

    // The same search untraced, then with each `auto` mode turned off:
    // all must reproduce the traced search exactly.
    let mut rerun = |what: &str, site_repeats, blocking| {
        ops.run(what, || {
            let run = search_serial(&data, config_with(site_repeats, blocking), search);
            let want = traced.as_ref().ok_or("no traced search to compare with")?;
            check_identical(what, &run, want).map(|()| run.seconds)
        })
    };
    let plain_s = rerun("untraced serial search", SiteRepeats::Auto, Blocking::Auto);
    let repeats_off_s = rerun("site-repeats off search", SiteRepeats::Off, Blocking::Auto);
    let blocking_off_s = rerun("blocking off search", SiteRepeats::Auto, Blocking::Off);

    m.push("evaluate_ms", evaluate_s * 1e3, "ms");
    m.push("bio.parse_s", times.parse, "s");
    m.push("bio.compress_s", times.compress, "s");
    m.push(
        "bio.patterns",
        data.compressed.num_patterns() as f64,
        "count",
    );
    m.push("search.start_tree_s", times.start_tree, "s");
    m.push("core.engine_new_s", times.engine_new, "s");

    let stats = engine.inner().stats();
    let kernels_s = total_kernel_seconds(stats);
    for (kernel, name) in [
        (KernelId::Newview, "newview"),
        (KernelId::Evaluate, "evaluate"),
        (KernelId::DerivativeSum, "derivative_sum"),
        (KernelId::DerivativeCore, "derivative_core"),
    ] {
        m.push(
            format!("core.kernels.{name}.s"),
            kernel_seconds(stats, kernel),
            "s",
        );
    }
    m.push("core.kernels.s", kernels_s, "s");
    m.push("core.kernels.sites", stats.total_sites() as f64, "count");
    let bytes: u64 = KernelOp::ALL
        .iter()
        .map(|&op| stats.op(op).bytes_read + stats.op(op).bytes_written)
        .sum();
    m.push(
        "core.kernels.gbps_computed",
        bytes as f64 * 1e-9 / kernels_s,
        "GB/s",
    );
    m.push(
        "core.blocking.block_sites",
        plf_core::blocking::block_sites() as f64,
        "count",
    );
    for call in Call::ALL {
        let stat = engine.stat(call);
        m.push(
            format!("core.{}.calls", call.name()),
            stat.calls as f64,
            "count",
        );
        m.push(format!("core.{}.s", call.name()), stat.seconds, "s");
    }
    let engine_s = engine.total_seconds();
    m.push("core.bookkeeping.s", engine_s - kernels_s, "s");
    let repeats = engine.inner().repeat_stats();
    m.push(
        "core.repeats.newview_calls",
        repeats.newview_calls as f64,
        "count",
    );
    m.push(
        "core.repeats.compressed_calls",
        repeats.compressed_calls as f64,
        "count",
    );
    m.push(
        "core.repeats.class_ratio",
        repeats.ratio().unwrap_or(1.0),
        "ratio",
    );

    let traced_s = traced.as_ref().map_or(f64::NAN, |r| r.seconds);
    let search_self_s = traced_s - (engine_s - before_search_s);
    m.push("search.self.s", search_self_s, "s");
    let result = traced.as_ref().map(|r| &r.result);
    m.push(
        "search.rounds",
        result.map_or(f64::NAN, |r| r.rounds as f64),
        "count",
    );
    m.push(
        "search.moves_evaluated",
        result.map_or(f64::NAN, |r| r.spr_evaluated as f64),
        "count",
    );
    m.push(
        "search.moves_accepted",
        result.map_or(f64::NAN, |r| r.spr_accepted as f64),
        "count",
    );
    let serial_attributed = times.total() + engine_s + search_self_s;

    let fj = ops
        .run("fork-join search", || {
            let fj = search_forkjoin_traced(&data, config, search);
            check_against("fork-join", &fj.run.result, result).map(|()| fj)
        })
        .map_or(ForkJoinLayers::FAILED, ForkJoinLayers::measure);
    m.push("parallel.forkjoin.regions", fj.regions, "count");
    m.push("parallel.forkjoin.fork_wait.s", fj.fork_s, "s");
    m.push("parallel.forkjoin.join_wait.s", fj.join_s, "s");
    m.push("parallel.forkjoin.region_p50_us", fj.region_p50_us, "us");
    m.push(
        "parallel.forkjoin.worker_kernels.s",
        fj.worker_kernels_s,
        "s",
    );
    m.push("parallel.forkjoin.spawn_s", fj.spawn_s, "s");
    m.push("parallel.forkjoin.shutdown_s", fj.shutdown_s, "s");

    let replicated = ops.run("replicated search", || {
        let (out, t) = search_replicated(&data, config, search)?;
        check_against("replicated", &out.result, result).map(|()| (out, t))
    });
    let out = replicated.map(|(out, _)| out);
    let of = |f: &dyn Fn(&ReplicatedOutcome) -> f64| out.as_ref().map_or(f64::NAN, f);
    m.push(
        "parallel.replicated.allreduces",
        of(&|o| o.comm_stats.allreduces as f64),
        "count",
    );
    m.push(
        "parallel.replicated.bytes",
        of(&|o| o.comm_stats.bytes as f64),
        "B",
    );
    m.push(
        "parallel.replicated.wire.s",
        of(&|o| o.wire.total_ns as f64 * 1e-9),
        "s",
    );
    m.push(
        "parallel.replicated.kernels.s",
        of(&|o| total_kernel_seconds(&o.kernel_stats)),
        "s",
    );

    let plain = plain_s.unwrap_or(f64::NAN);
    m.push(
        "core.repeats.auto_over_off",
        plain / repeats_off_s.unwrap_or(f64::NAN),
        "ratio",
    );
    m.push(
        "core.blocking.auto_over_off",
        plain / blocking_off_s.unwrap_or(f64::NAN),
        "ratio",
    );
    m.push("trace.overhead", traced_s / plain, "ratio");
    let wall = serial_wall + fj.wall;
    m.push(
        "trace.unattributed",
        (wall - serial_attributed - fj.attributed()) / wall,
        "ratio",
    );
    Ok(m)
}

/// Per-layer figures of one traced fork-join search.
struct ForkJoinLayers {
    regions: f64,
    fork_s: f64,
    join_s: f64,
    region_p50_us: f64,
    worker_kernels_s: f64,
    spawn_s: f64,
    shutdown_s: f64,
    /// Spawn + search + shutdown.
    wall: f64,
    /// Time inside the decorated evaluator calls.
    calls_s: f64,
}

impl ForkJoinLayers {
    /// What a failed search reports.
    const FAILED: ForkJoinLayers = ForkJoinLayers {
        regions: f64::NAN,
        fork_s: f64::NAN,
        join_s: f64::NAN,
        region_p50_us: f64::NAN,
        worker_kernels_s: f64::NAN,
        spawn_s: f64::NAN,
        shutdown_s: f64::NAN,
        wall: f64::NAN,
        calls_s: f64::NAN,
    };

    /// Reads the pool's counters (untimed), then shuts it down (timed).
    fn measure(mut fj: ForkJoinTrace) -> Self {
        let regions = *fj.pool.inner().master_stats().regions();
        let workers = fj.pool.inner_mut().take_stats_per_worker();
        let calls_s = fj.pool.total_seconds();
        let t = Instant::now();
        drop(fj.pool);
        let shutdown_s = t.elapsed().as_secs_f64();
        let p50_ns = regions.fork.p50_ns().unwrap_or(0) + regions.join.p50_ns().unwrap_or(0);
        ForkJoinLayers {
            regions: regions.count as f64,
            fork_s: regions.fork.total_ns() as f64 * 1e-9,
            join_s: regions.join.total_ns() as f64 * 1e-9,
            region_p50_us: p50_ns as f64 * 1e-3,
            worker_kernels_s: workers.iter().map(total_kernel_seconds).sum(),
            spawn_s: fj.spawn_s,
            shutdown_s,
            wall: fj.spawn_s + fj.run.seconds + shutdown_s,
            calls_s,
        }
    }

    /// The wall-clock covered by layers: spawn, the search's own time,
    /// the fork and join waits, and shutdown. The master's own
    /// per-region work is what remains.
    fn attributed(&self) -> f64 {
        self.wall - self.calls_s + self.fork_s + self.join_s
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                let kib = l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
