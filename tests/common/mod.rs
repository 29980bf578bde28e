//! Helpers shared by the integration tests.

use isolation_bench::prelude::FigureData;

/// The reference figure digests the repository benchmark checks: one
/// `<seed> <experiment slug> <hex digest>` line per recorded figure.
const RECORDED: &str = include_str!("../../perfbench/digests.txt");

/// FNV-1a over a figure's `Debug` rendering. `f64` debug-prints its
/// shortest round-tripping form, so equal digests mean bit-identical
/// figures.
fn digest(fig: &FigureData) -> u64 {
    format!("{fig:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        })
}

/// The digest `perfbench/digests.txt` records for `slug` at `seed`.
fn recorded_digest(seed: u64, slug: &str) -> u64 {
    RECORDED
        .lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let mut fields = line.split_whitespace();
            let (s, name, hex) = (fields.next()?, fields.next()?, fields.next()?);
            if s.parse::<u64>().ok()? == seed && name == slug {
                u64::from_str_radix(hex, 16).ok()
            } else {
                None
            }
        })
        .unwrap_or_else(|| panic!("perfbench/digests.txt records no {seed} {slug} digest"))
}

/// Asserts that every figure, computed at `seed`, is bit-identical to the
/// figure its recorded digest was taken from.
pub fn assert_recorded_digests(figures: &[FigureData], seed: u64) {
    for fig in figures {
        let slug = fig.experiment.slug();
        assert_eq!(
            digest(fig),
            recorded_digest(seed, slug),
            "{slug} at seed {seed} differs from its perfbench/digests.txt figure"
        );
    }
}
