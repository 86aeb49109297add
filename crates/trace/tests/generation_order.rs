//! Pin: generation emits the unique global sort order.
//!
//! The generator's finalization sorts all emitted jobs with one unstable
//! sort. Because every job's sort key `(submit, user, name, run)` is unique
//! (the run counter separates same-template resubmissions), the key order
//! is a *total* order — so any procedure that outputs the jobs in key order
//! is byte-identical to the historical stable global sort. These tests
//! verify exactly that, across seeds and presets: the emitted job multiset
//! is in strictly increasing key order, with dense submission-ordered ids.
//! `generation_pin.rs` pins the traces themselves.

use helios_trace::{earth_profile, generate, venus_profile, GeneratorConfig};

#[test]
fn merged_output_is_the_unique_global_sort_order() {
    for profile in [venus_profile(), earth_profile()] {
        for seed in [3, 17, 2020] {
            let cfg = GeneratorConfig { scale: 0.05, seed };
            let t = generate(&profile, &cfg).unwrap();
            let tag = format!("{} seed {seed}", t.spec.id.name());
            assert!(!t.jobs.is_empty(), "{tag}: empty trace");
            // Strictly increasing keys: simultaneously proves (a) the sort
            // emitted key-sorted order — i.e. exactly what a global stable
            // sort produces — and (b) key uniqueness, without which the
            // orders could differ.
            for (i, w) in t.jobs.windows(2).enumerate() {
                let ka = (w[0].submit, w[0].user, w[0].name, w[0].run);
                let kb = (w[1].submit, w[1].user, w[1].name, w[1].run);
                assert!(ka < kb, "{tag}: keys not strictly increasing at {i}");
            }
            // Ids dense in sorted order.
            for (i, j) in t.jobs.iter().enumerate() {
                assert_eq!(j.id, i as u64, "{tag}: id gap at {i}");
            }
        }
    }
}

#[test]
fn merge_is_deterministic() {
    let cfg = GeneratorConfig {
        scale: 0.05,
        seed: 7,
    };
    let a = generate(&venus_profile(), &cfg).unwrap();
    let b = generate(&venus_profile(), &cfg).unwrap();
    assert_eq!(a.jobs, b.jobs);
}
