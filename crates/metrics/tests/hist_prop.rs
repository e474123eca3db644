//! Property test for the log-bucketed histogram: for random sample sets
//! drawn from several distribution shapes, every reported quantile is
//! within one sub-bucket's relative error of the exact sorted-sample
//! quantile.

use proptest::prelude::*;
use uat_metrics::{bucket_index, bucket_lower, bucket_upper, HistSnapshot, SUB_BITS};

/// Exact quantile with the same rank convention the histogram uses:
/// the `ceil(q·n)`-th smallest sample (1-based).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Shape raw draws into different distributions so the property is not
/// only exercised on uniform data: identity, squared (right-skewed),
/// low-bits (clustered small values), and exponential-ish (bit-shifted).
fn shape(raw: u64, dist: u8) -> u64 {
    match dist % 4 {
        0 => raw % 100_000,
        1 => (raw % 65_536).pow(2),
        2 => raw % 32,
        _ => (raw % 1_024) << (raw % 40),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quantiles_within_one_bucket_of_exact(
        raw in proptest::collection::vec(any::<u64>(), 1..400),
        dist in any::<u8>(),
    ) {
        let samples: Vec<u64> = raw.iter().map(|&r| shape(r, dist)).collect();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let hist = HistSnapshot::of_samples(samples.iter().copied());
        prop_assert_eq!(hist.count(), samples.len() as u64);

        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = exact_quantile(&sorted, q);
            let got = hist.quantile(q);
            // The histogram answers with the upper bound of the bucket
            // holding the exact sample: same bucket, so the error is at
            // most the bucket width, i.e. exact / 2^SUB_BITS.
            prop_assert_eq!(bucket_index(got), bucket_index(exact));
            prop_assert!(got >= exact);
            prop_assert!(
                got - exact <= (exact >> SUB_BITS),
                "q{} off by {} on exact {} (bucket width {})",
                q, got - exact, exact,
                bucket_upper(bucket_index(exact)) - bucket_lower(bucket_index(exact)) + 1
            );
        }
    }
}
