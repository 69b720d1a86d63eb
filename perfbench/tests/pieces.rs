//! Tests of the benchmark's own pieces: the input generator, the
//! timing decorator and the failure counter.

use perfbench::bench::{
    check_scheme, check_serial, default_config, search_on, search_serial, setup,
};
use perfbench::ops::{scheme_tolerance, Ops};
use perfbench::timed::{Call, Timed};
use perfbench::workload::{Workload, WORKLOADS};
use phylo_bio::{phylip, CompressedAlignment};
use phylo_search::MlSearch;
use plf_core::LikelihoodEngine;

/// A workload small enough for a debug-build search.
const TINY: Workload = Workload {
    name: "tiny-8x400",
    taxa: 8,
    sites: 400,
    mean_branch: 0.1,
    optimize_model: true,
    max_rounds: 1,
    spr_radius: 3,
    smoothing_passes: 2,
};

fn patterns(w: &Workload, seed: u64) -> (usize, u64) {
    let inputs = w.generate(seed);
    let aln = phylip::parse_str(&inputs.phylip).unwrap();
    (
        CompressedAlignment::from_alignment(&aln).num_patterns(),
        inputs.checksum(),
    )
}

#[test]
fn generator_is_deterministic_per_seed() {
    for w in [TINY, WORKLOADS[2]] {
        assert_eq!(patterns(&w, 7), patterns(&w, 7), "{}", w.name);
        let (a, b) = (w.generate(7), w.generate(7));
        assert_eq!(a.start_tree().rf_distance(&b.start_tree()), 0);
    }
}

#[test]
fn another_seed_changes_the_alignment() {
    for w in [TINY, WORKLOADS[2]] {
        let (_, one) = patterns(&w, 1);
        let (_, two) = patterns(&w, 2);
        assert_ne!(one, two, "{}", w.name);
    }
}

#[test]
fn workload_names_are_unique_and_found() {
    for w in WORKLOADS {
        assert_eq!(Workload::by_name(w.name), Some(w));
    }
    assert_eq!(Workload::by_name("nope"), None);
}

#[test]
fn decorator_forwards_every_call_unchanged() {
    let inputs = TINY.generate(3);
    let s = setup(&inputs, default_config()).unwrap();
    let search = MlSearch::new(TINY.search_config());

    let bare = search_serial(&s.data, default_config(), search);
    let engine = LikelihoodEngine::new(&s.data.start, &s.data.compressed, default_config());
    let mut timed = Timed::new(engine);
    let traced = search_on(&mut timed, &s.data.start, search);

    assert_eq!(
        traced.result.log_likelihood.to_bits(),
        bare.result.log_likelihood.to_bits()
    );
    assert_eq!(traced.result.newick, bare.result.newick);
    assert_eq!(traced.result.rounds, bare.result.rounds);
    assert_eq!(traced.result.spr_evaluated, bare.result.spr_evaluated);
    assert_eq!(traced.result.spr_accepted, bare.result.spr_accepted);
    assert_eq!(traced.alpha.to_bits(), bare.alpha.to_bits());
    assert_eq!(traced.model, bare.model);

    // Every method the search uses was seen, and the totals add up.
    for call in [
        Call::LogLikelihood,
        Call::PrepareBranch,
        Call::BranchDerivatives,
        Call::SetModel,
        Call::SetAlpha,
    ] {
        assert!(timed.stat(call).calls > 0, "{} never called", call.name());
    }
    let sum: f64 = Call::ALL.iter().map(|&c| timed.stat(c).seconds).sum();
    assert_eq!(sum, timed.total_seconds());
    assert!(timed.total_seconds() <= traced.seconds);
}

#[test]
fn failure_counter_catches_an_injected_mismatch() {
    let inputs = TINY.generate(5);
    let s = setup(&inputs, default_config()).unwrap();
    let search = MlSearch::new(TINY.search_config());
    let serial = search_serial(&s.data, default_config(), search);

    let mut ops = Ops::default();
    assert!(ops
        .run("clean", || check_serial(
            &serial,
            &s.data.compressed,
            default_config()
        ))
        .is_some());
    assert_eq!((ops.total, ops.failed), (1, 0));

    // One ulp off the reference fails the bit-for-bit serial check.
    let mut off_by_ulp = search_serial(&s.data, default_config(), search);
    off_by_ulp.result.log_likelihood =
        f64::from_bits(off_by_ulp.result.log_likelihood.to_bits() + 1);
    assert!(ops
        .run("injected ulp", || check_serial(
            &off_by_ulp,
            &s.data.compressed,
            default_config()
        ))
        .is_none());

    // A parallel result within the tolerance passes the scheme check;
    // one outside it, or with a different move count, fails.
    let mut near = serial.result.clone();
    near.log_likelihood -= 0.5 * scheme_tolerance(near.log_likelihood);
    assert!(ops
        .run("rounded logL", || check_scheme(
            "fork-join",
            &near,
            &serial.result
        ))
        .is_some());
    let mut far = serial.result.clone();
    far.log_likelihood += 2.0 * scheme_tolerance(far.log_likelihood);
    assert!(ops
        .run("injected logL", || check_scheme(
            "fork-join",
            &far,
            &serial.result
        ))
        .is_none());
    let mut moved = serial.result.clone();
    moved.spr_evaluated += 1;
    assert!(ops
        .run("injected moves", || check_scheme(
            "replicated",
            &moved,
            &serial.result
        ))
        .is_none());

    // A panicking operation is counted, not fatal.
    assert!(ops
        .run("injected panic", || -> Result<(), String> {
            panic!("boom")
        })
        .is_none());

    assert_eq!((ops.total, ops.failed), (6, 4));
    assert!(ops.failures.iter().any(|f| f.contains("injected panic")));
}
