//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Generates the workload's inputs from the seed, runs the untraced
//! pass (`--trace 0`, end-to-end metrics) or the traced pass
//! (`--trace 1`, per-layer metrics) for about `S` seconds, and prints
//! the run's configuration record followed, as the last line, by one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.

use perfbench::bench::{default_config, setup};
use perfbench::ops::Ops;
use perfbench::report::{result_json, Record};
use perfbench::run::{traced, untraced};
use perfbench::workload::{Workload, WORKLOADS};
use std::process::ExitCode;

/// Environment variables that override the engine configuration; a
/// run under any of them would not measure the defaults.
const OVERRIDES: [&str; 3] = [
    "PHYLOMIC_KERNELS",
    "PHYLOMIC_SITE_REPEATS",
    "PHYLOMIC_BLOCKING",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (expected one of {names:?})")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Installs the host calibration from `HOST_ROOFLINE.json` in the
/// working directory exactly as `phylomic` does at start-up, and
/// records what it held.
fn load_calibration(rec: &mut Record) {
    let path = plf_prof::roofline::CACHE_FILE;
    rec.text("calibration.file", path);
    match plf_prof::roofline::load_cached(std::path::Path::new(path)) {
        Some(r) => {
            let installed = r.peak_mbps > 0
                && plf_core::cost::set_calibration(plf_core::ProfitCalibration {
                    kernel_mbps: r.peak_mbps,
                    copy_mbps: r.copy_mbps,
                    cache_bytes: r.cache_bytes,
                });
            rec.raw("calibration.loaded", installed);
            rec.raw("calibration.peak_mbps", r.peak_mbps);
            rec.raw("calibration.has_copy_mbps", r.copy_mbps > 0);
            rec.raw("calibration.has_cache_bytes", r.cache_bytes > 0);
            rec.text("calibration.cpu_model", &r.cpu_model);
        }
        None => rec.raw("calibration.loaded", false),
    }
}

/// The git revision of the working directory, when it is a checkout.
fn git_rev() -> String {
    if std::path::Path::new(".git").exists() {
        plf_prof::host::git_rev()
    } else {
        "unknown".into()
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let set: Vec<&str> = OVERRIDES
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some_and(|s| !s.is_empty()))
        .collect();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with {} set: the benchmark measures the default configuration",
            set.join(", ")
        ));
    }
    let mut rec = Record::default();
    rec.text("workload", args.workload.name);
    rec.raw("seed", args.seed);
    rec.raw("seconds", args.seconds);
    rec.raw("trace", u8::from(args.trace));
    load_calibration(&mut rec);

    let inputs = args.workload.generate(args.seed);
    rec.raw("input.checksum", inputs.checksum());
    let mut ops = Ops::default();
    let metrics = if args.trace {
        traced(&args.workload, &inputs, args.seconds, &mut ops)?
    } else {
        untraced(&args.workload, &inputs, args.seconds, &mut ops)?
    };

    // What the defaults resolved to on this host for this workload.
    let engine = setup(&inputs, default_config())?.engine;
    rec.raw("patterns", engine.num_patterns());
    rec.text("backend", engine.kernel_kind().to_string());
    rec.text("site_repeats", engine.site_repeats().to_string());
    rec.text("blocking", engine.blocking().to_string());
    rec.raw("block_sites", plf_core::blocking::block_sites());
    rec.text("cpu_model", plf_prof::host::cpu_model());
    rec.raw("nproc", plf_prof::host::cores());
    rec.text("git_rev", git_rev());
    rec.raw("ops_total", ops.total);
    rec.raw("ops_failed", ops.failed);
    for (i, f) in ops.failures.iter().enumerate() {
        rec.text(&format!("failure.{i}"), f);
    }
    println!("{}", rec.to_json());
    println!("{}", result_json(&ops, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
