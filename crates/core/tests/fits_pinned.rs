//! Bit-for-bit pins of both services' models on a generated trace.
//!
//! `QssfService` and `CesService` each fit a GBDT on a real-shape training
//! matrix (Venus at scale 0.02, seed 2020), so any change to the grower,
//! the sampling stream or the feature pipelines that moves a single model
//! bit moves one of these digests. The trace is small enough for a debug
//! build.

use helios_core::{CesService, CesServiceConfig, QssfConfig, QssfService};
use helios_energy::node_series_from_trace;
use helios_sim::Placement;
use helios_trace::{generate, venus_profile, GeneratorConfig, Trace, SECS_PER_DAY};

/// FNV-1a over a stream of 64-bit words.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn venus() -> Trace {
    let cfg = GeneratorConfig {
        scale: 0.02,
        seed: 2020,
    };
    generate(&venus_profile(), &cfg).unwrap()
}

/// The last month, as the façade's evaluation window.
fn eval_window(trace: &Trace) -> (i64, i64) {
    trace.calendar.month_range(trace.calendar.num_months() - 1)
}

#[test]
fn qssf_priorities_are_pinned_bit_for_bit() {
    let trace = venus();
    let (lo, hi) = eval_window(&trace);
    let mut qssf = QssfService::new(QssfConfig::default());
    qssf.train(&trace, 0, lo).unwrap();
    let scored = qssf.assign_priorities(&trace, lo, hi);
    let words = scored.iter().flat_map(|j| [j.id, j.priority.to_bits()]);
    assert_eq!((scored.len(), digest(words)), (4474, 0x9459_d4ee_66ee_ba20));
}

#[test]
fn ces_forecast_and_smape_are_pinned_bit_for_bit() {
    let trace = venus();
    let (lo, hi) = eval_window(&trace);
    let series = node_series_from_trace(&trace, 600, Placement::Consolidate).unwrap();
    let mut ces = CesService::new(CesServiceConfig::default().scaled_to(trace.spec.nodes));
    let eval = ces
        .evaluate(&trace, &series, lo, (lo + 21 * SECS_PER_DAY).min(hi))
        .unwrap();
    let forecast = digest(eval.forecast.iter().map(|v| v.to_bits()));
    assert_eq!(
        (eval.forecast.len(), forecast),
        (3024, 0x296e_fda8_a398_a3d0)
    );
    assert_eq!(eval.smape.to_bits(), 7.118_668_679_203_75f64.to_bits());
}
