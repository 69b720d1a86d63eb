//! `cargo xtask` — workspace automation entry point.
//!
//! `cargo xtask lint` drives the `plf-analyzer` crate (token-tree
//! static analysis: hot-path purity, FP-determinism, unsafe-invariant
//! rules and the unsafe inventory drift gate). The audit files live
//! next to this crate: `relaxed_allowlist.txt`,
//! `unsafe_impl_registry.txt`, `purity_allowlist.txt`,
//! `fpdet_allowlist.txt` and `unsafe_inventory.json`.
#![deny(unsafe_op_in_unsafe_fn)]

use std::path::PathBuf;
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // crates/xtask -> workspace root, independent of the caller's cwd.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("bench-trend") => bench_trend(&args[1..]),
        _ => {
            eprintln!(
                "usage: cargo xtask lint [--root <workspace>] [--json <path>] \
                 [--update-inventory] [--cfg-feature <name>]...\n       \
                 cargo xtask bench-trend [--gate] [--write] [--root <workspace>]"
            );
            ExitCode::from(2)
        }
    }
}

/// `cargo xtask lint`: run the plf-analyzer rule families over the
/// workspace. `--json <path>` additionally writes the findings as a
/// JSON artifact; `--update-inventory` regenerates
/// `crates/xtask/unsafe_inventory.json` from the current census
/// (after review!); `--cfg-feature <name>` analyzes items gated
/// behind `#[cfg(feature = "<name>")]` — CI uses this to prove the
/// analyzer catches seeded violations.
fn lint(args: &[String]) -> ExitCode {
    let mut root = workspace_root();
    let mut json_path: Option<PathBuf> = None;
    let mut update_inventory = false;
    let mut features: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--json" => match it.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--json requires a path");
                    return ExitCode::from(2);
                }
            },
            "--update-inventory" => update_inventory = true,
            "--cfg-feature" => match it.next() {
                Some(f) => features.push(f.clone()),
                None => {
                    eprintln!("--cfg-feature requires a feature name");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown lint option: {other}");
                return ExitCode::from(2);
            }
        }
    }
    let cfg = plf_analyzer::Config {
        root: root.clone(),
        features,
    };
    let started = std::time::Instant::now();
    let mut analysis = match plf_analyzer::analyze_workspace(&cfg) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    if update_inventory {
        let path = root.join("crates/xtask/unsafe_inventory.json");
        if let Err(e) = std::fs::write(&path, &analysis.inventory) {
            eprintln!("xtask lint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
        // Drift findings against the stale file no longer apply.
        analysis.findings.retain(|f| f.rule != "inventory");
    }
    for f in &analysis.findings {
        eprintln!("{f}");
    }
    if let Some(path) = json_path {
        let json = plf_analyzer::report::render_json(&analysis.findings);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("xtask lint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    println!(
        "xtask lint: {} file(s), {} fn(s), {} cfg-skipped item(s) analyzed in {:.0?}",
        analysis.files,
        analysis.fns,
        analysis.skipped_cfg_items,
        started.elapsed()
    );
    if analysis.findings.is_empty() {
        println!("xtask lint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask lint: {} finding(s)", analysis.findings.len());
        ExitCode::FAILURE
    }
}

/// `cargo xtask bench-trend`: aggregate the committed `BENCH_*.json`
/// into a trend table. `--write` refreshes `BENCH_TREND.json` and
/// `BENCH_TREND.md` in the workspace root; `--gate` fails (exit 1)
/// when the newest file regresses any (kernel, backend, size) cell
/// more than 10% past the best prior PR, unless the cell is waived in
/// `crates/xtask/trend_waivers.txt`.
fn bench_trend(args: &[String]) -> ExitCode {
    let mut gate = false;
    let mut write = false;
    let mut root = workspace_root();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--gate" => gate = true,
            "--write" => write = true,
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--root requires a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown bench-trend option: {other}");
                return ExitCode::from(2);
            }
        }
    }
    let files = match plf_prof::trend::scan_dir(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bench-trend: {e}");
            return ExitCode::FAILURE;
        }
    };
    if files.is_empty() {
        eprintln!("bench-trend: no BENCH_*.json in {}", root.display());
        return ExitCode::FAILURE;
    }
    println!(
        "bench-trend: {} file(s): {}",
        files.len(),
        files
            .iter()
            .map(|f| f.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    if write {
        let json_path = root.join("BENCH_TREND.json");
        let md_path = root.join("BENCH_TREND.md");
        for (path, content) in [
            (&json_path, plf_prof::trend::render_trend_json(&files)),
            (&md_path, plf_prof::trend::render_trend_markdown(&files)),
        ] {
            if let Err(e) = std::fs::write(path, content) {
                eprintln!("bench-trend: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", path.display());
        }
    } else {
        print!("{}", plf_prof::trend::render_trend_markdown(&files));
    }
    if gate {
        let waiver_path = root.join("crates/xtask/trend_waivers.txt");
        let waivers = match std::fs::read_to_string(&waiver_path) {
            Ok(text) => match plf_prof::trend::parse_waivers(&text) {
                Ok(w) => w,
                Err(e) => {
                    eprintln!("bench-trend: {}: {e}", waiver_path.display());
                    return ExitCode::FAILURE;
                }
            },
            Err(_) => Vec::new(),
        };
        let report = plf_prof::trend::gate(&files, plf_prof::trend::DEFAULT_TOLERANCE, &waivers);
        print!("{}", report.render());
        if report.failed() {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
