//! Pin: the generator's output, bit for bit.
//!
//! `generation_order.rs` checks that every trace is in strictly increasing
//! key order and that generation repeats run to run; a trace that changed
//! but stayed well ordered would pass it. These tests hash every field of
//! every job plus the interned name pool of `generate` for the four Helios
//! profiles and Philly at two seeds, against digests recorded before the
//! generator was parallelised, and check that `generate_helios` returns
//! exactly what four sequential `generate` calls return.

use helios_trace::{
    earth_profile, generate, generate_helios, philly_profile, saturn_profile, uranus_profile,
    venus_profile, GeneratorConfig, Trace, WorkloadProfile,
};

/// FNV-1a over the little-endian bytes of every job field, then the name
/// pool (each base name length-prefixed).
fn digest(t: &Trace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&(t.jobs.len() as u64).to_le_bytes());
    for j in &t.jobs {
        eat(&j.id.to_le_bytes());
        eat(&j.user.to_le_bytes());
        eat(&j.vc.to_le_bytes());
        eat(&j.gpus.to_le_bytes());
        eat(&j.cpus.to_le_bytes());
        eat(&j.submit.to_le_bytes());
        eat(&j.start.to_le_bytes());
        eat(&j.duration.to_le_bytes());
        eat(&[j.status as u8]);
        eat(&j.name.to_le_bytes());
        eat(&j.run.to_le_bytes());
    }
    eat(&(t.names.len() as u64).to_le_bytes());
    for id in 0..t.names.len() as u32 {
        let base = t.names.base(id);
        eat(&(base.len() as u64).to_le_bytes());
        eat(base.as_bytes());
    }
    h
}

/// `(profile, [digest at seed 2020, digest at seed 2021])` at scale 0.05.
fn pins() -> [(WorkloadProfile, [u64; 2]); 5] {
    [
        (
            venus_profile(),
            [0xc754_434e_b0b3_f03f, 0x869a_2535_3ad7_40e5],
        ),
        (
            earth_profile(),
            [0xa3eb_a87c_fd5d_1eaf, 0xc980_c5c9_e319_0ace],
        ),
        (
            saturn_profile(),
            [0x3749_7359_21da_23f4, 0xf89a_05ce_5cf5_e63b],
        ),
        (
            uranus_profile(),
            [0xb7dd_26e4_a181_2716, 0x7006_e3bd_c6dd_9de0],
        ),
        (
            philly_profile(),
            [0x3c65_cace_5721_8175, 0xda5c_4bd9_2351_dc19],
        ),
    ]
}

fn check_seed(slot: usize, seed: u64) {
    let cfg = GeneratorConfig { scale: 0.05, seed };
    let helios = generate_helios(&cfg).unwrap();
    assert_eq!(helios.len(), 4);
    let mut wrong = Vec::new();
    for (i, (profile, pin)) in pins().into_iter().enumerate() {
        let t = generate(&profile, &cfg).unwrap();
        let tag = format!("{} seed {seed}", t.spec.id.name());
        let got = digest(&t);
        if got != pin[slot] {
            wrong.push(format!("{tag}: {got:#018x}, pinned {:#018x}", pin[slot]));
        }
        if let Some(h) = helios.get(i) {
            assert_eq!(h.spec, t.spec, "{tag}: generate_helios spec");
            assert_eq!(
                h.jobs.len(),
                t.jobs.len(),
                "{tag}: generate_helios job count"
            );
            for (k, (a, b)) in h.jobs.iter().zip(&t.jobs).enumerate() {
                assert_eq!(a, b, "{tag}: generate_helios job {k}");
            }
            assert_eq!(h.names.len(), t.names.len(), "{tag}: name pool size");
            for id in 0..t.names.len() as u32 {
                assert_eq!(h.names.base(id), t.names.base(id), "{tag}: name {id}");
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "trace digests moved:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn traces_at_seed_2020_are_pinned_bit_for_bit() {
    check_seed(0, 2020);
}

#[test]
fn traces_at_seed_2021_are_pinned_bit_for_bit() {
    check_seed(1, 2021);
}
