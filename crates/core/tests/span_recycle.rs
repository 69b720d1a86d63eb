//! Span-ring recycling across thread lifetimes.
//!
//! The span registry is process-global, so these checks live in their
//! own test binary: no other test's threads register or release
//! tracks while the counts are taken.

use plf_core::span::{self, snapshot_all, SpanPhase};

fn record_on_thread(label: &'static str, span_name: &'static str) {
    std::thread::spawn(move || {
        span::set_thread_label(label);
        let _g = span::enter(span_name);
    })
    .join()
    .unwrap();
}

#[test]
fn exited_threads_rings_are_reused_and_relabelled() {
    if !span::is_enabled() {
        return; // span-trace compiled out: no registry to observe
    }
    // The first thread's track is new; every later thread reuses it.
    record_on_thread("recycle-first", "first_span");
    let before = snapshot_all().len();
    let first = snapshot_all()
        .into_iter()
        .find(|t| t.label == "recycle-first")
        .expect("first thread's track");
    assert!(first.events.iter().any(|e| e.name == "first_span"));
    for _ in 0..64 {
        record_on_thread("recycle-loop", "loop_span");
    }
    let tracks = snapshot_all();
    assert!(
        tracks.len() <= before + 1,
        "64 sequential threads grew the registry from {before} to {} tracks",
        tracks.len()
    );

    // A reused track belongs to its new owner only: its label, and
    // exactly one span (begin + end) since the takeover.
    record_on_thread("recycle-last", "last_span");
    let tracks = snapshot_all();
    assert!(tracks.iter().all(|t| t.label != "recycle-first"));
    let last = tracks
        .iter()
        .find(|t| t.label == "recycle-last")
        .expect("last thread's track");
    let names: Vec<_> = last.events.iter().map(|e| (e.name, e.phase)).collect();
    assert_eq!(
        names,
        [
            ("last_span", SpanPhase::Begin),
            ("last_span", SpanPhase::End)
        ]
    );
    assert_eq!((last.recorded, last.dropped), (2, 0));
    for t in &tracks {
        assert!(
            t.events
                .iter()
                .all(|e| e.name != "first_span" && e.name != "loop_span"),
            "track {:?} still shows an earlier owner's events",
            t.label
        );
    }
}
