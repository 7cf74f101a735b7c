//! The timing summary every reported percentile goes through.

use pc_perfbench::stats::{describe, label, Reservoir, Summary, MIN_BEYOND};

fn ramp(n: usize) -> Summary {
    // Shuffled on purpose: the summary sorts.
    Summary::new((0..n).rev().map(|i| i as f64).collect())
}

#[test]
fn median_is_the_nearest_rank_middle() {
    assert_eq!(ramp(1).median(), Some(0.0));
    assert_eq!(ramp(5).median(), Some(2.0));
    assert_eq!(ramp(4).median(), Some(1.0));
    assert_eq!(Summary::new(Vec::new()).median(), None);
}

#[test]
fn p99_needs_ten_samples_beyond_it() {
    // 1000 samples: p99 is rank 990 (value 989) with exactly 10 above.
    assert_eq!(ramp(1000).per_mille(990), Some(989.0));
    // One fewer leaves 9 above: the percentile must not be reported.
    assert_eq!(ramp(999).per_mille(990), None);
    assert_eq!(ramp(10_000).per_mille(990), Some(9899.0));
}

#[test]
fn too_few_samples_for_p99_says_so_instead_of_a_number() {
    let s = ramp(300);
    assert_eq!(s.per_mille(990), None);
    assert_eq!(s.per_mille(999), None);
    // The helper falls back to the highest supported tail…
    assert_eq!(s.tail(), Some((950, 284.0)));
    // …and with under 100 samples there is none at all.
    let tiny = ramp(50);
    assert_eq!(tiny.tail(), None);
    assert!(
        describe(&tiny, "us").contains("no tail"),
        "{}",
        describe(&tiny, "us")
    );
    assert!(describe(&tiny, "us").contains("n=50"));
}

#[test]
fn tail_is_the_highest_supported_percentile() {
    assert_eq!(ramp(100).tail().map(|t| t.0), Some(900));
    assert_eq!(ramp(200).tail().map(|t| t.0), Some(950));
    assert_eq!(ramp(1000).tail().map(|t| t.0), Some(990));
    assert_eq!(ramp(10_000).tail().map(|t| t.0), Some(999));
    for n in [100, 200, 1000, 10_000] {
        let s = ramp(n);
        let (pm, v) = s.tail().unwrap();
        let beyond = (0..n).filter(|&i| i as f64 > v).count();
        assert!(
            beyond >= MIN_BEYOND,
            "n={n} {} has {beyond} beyond",
            label(pm)
        );
    }
}

#[test]
fn labels() {
    assert_eq!(label(999), "p99.9");
    assert_eq!(label(990), "p99");
    assert_eq!(label(500), "p50");
}

#[test]
fn reservoir_keeps_every_sample_below_capacity() {
    let mut r = Reservoir::default();
    for i in 0..1000 {
        r.push(i as f64);
    }
    let s = Reservoir::summary([&r]);
    assert_eq!((s.count(), s.seen()), (1000, 1000));
    assert_eq!(s.median(), Some(499.0));
}

#[test]
fn reservoir_memory_is_bounded_and_the_sample_stays_uniform() {
    let n = 4 * Reservoir::CAPACITY;
    let (mut a, mut b) = (Reservoir::default(), Reservoir::default());
    for i in 0..n {
        a.push(i as f64);
        b.push((n + i) as f64);
    }
    let s = Reservoir::summary([&a, &b]);
    assert_eq!(s.count(), 2 * Reservoir::CAPACITY);
    assert_eq!(s.seen(), 2 * n as u64);
    // The pooled median of 0..2n sits near n.
    let med = s.median().unwrap();
    assert!((med / n as f64 - 1.0).abs() < 0.02, "median {med} vs {n}");
    assert!(describe(&s, "us").contains("uniform sample"));
}
