//! Heterogeneous table mixes (paper Table VII and Figure 17).
//!
//! In production, the tables of one model differ in hotness. The paper
//! evaluates three synthetic mixtures of its four evaluated patterns; this
//! module reproduces them and lets callers build custom mixes.

use crate::pattern::AccessPattern;

/// The three mixtures evaluated in the paper's Table VII.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MixKind {
    /// 100 high-hot, 75 med-hot, 50 low-hot, 25 random tables.
    Mix1,
    /// 62 high-hot, 63 med-hot, 63 low-hot, 62 random tables.
    Mix2,
    /// 25 high-hot, 50 med-hot, 75 low-hot, 100 random tables.
    Mix3,
}

impl MixKind {
    /// All paper mixes in order.
    pub const ALL: [MixKind; 3] = [MixKind::Mix1, MixKind::Mix2, MixKind::Mix3];

    /// The mix name as used in Figure 17.
    pub fn paper_name(&self) -> &'static str {
        match self {
            MixKind::Mix1 => "Mix1",
            MixKind::Mix2 => "Mix2",
            MixKind::Mix3 => "Mix3",
        }
    }
}

/// A heterogeneous embedding stage: a list of `(pattern, table_count)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeterogeneousMix {
    name: String,
    composition: Vec<(AccessPattern, u32)>,
}

impl HeterogeneousMix {
    /// Builds a custom mix.
    ///
    /// # Panics
    /// Panics if the composition is empty or contains zero-count entries.
    pub fn new(name: impl Into<String>, composition: Vec<(AccessPattern, u32)>) -> Self {
        assert!(
            !composition.is_empty(),
            "a mix must contain at least one table group"
        );
        assert!(
            composition.iter().all(|&(_, n)| n > 0),
            "every table group in a mix must contain at least one table"
        );
        HeterogeneousMix {
            name: name.into(),
            composition,
        }
    }

    /// One of the paper's Table VII mixes, scaled by `scale` (the paper uses
    /// 250 tables total; `scale = 1.0` reproduces that, smaller values shrink
    /// every group proportionally while keeping at least one table each).
    pub fn paper_mix(kind: MixKind, scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let counts: [(AccessPattern, u32); 4] = match kind {
            MixKind::Mix1 => [
                (AccessPattern::HighHot, 100),
                (AccessPattern::MedHot, 75),
                (AccessPattern::LowHot, 50),
                (AccessPattern::Random, 25),
            ],
            MixKind::Mix2 => [
                (AccessPattern::HighHot, 62),
                (AccessPattern::MedHot, 63),
                (AccessPattern::LowHot, 63),
                (AccessPattern::Random, 62),
            ],
            MixKind::Mix3 => [
                (AccessPattern::HighHot, 25),
                (AccessPattern::MedHot, 50),
                (AccessPattern::LowHot, 75),
                (AccessPattern::Random, 100),
            ],
        };
        let composition = counts
            .iter()
            .map(|&(p, n)| (p, ((n as f64 * scale).round() as u32).max(1)))
            .collect();
        HeterogeneousMix::new(kind.paper_name(), composition)
    }

    /// A homogeneous "mix" of `tables` tables that all share one pattern
    /// (the paper's default evaluation setting).
    pub fn homogeneous(pattern: AccessPattern, tables: u32) -> Self {
        HeterogeneousMix::new(format!("{pattern} x{tables}"), vec![(pattern, tables)])
    }

    /// The mix name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The `(pattern, count)` composition.
    pub fn composition(&self) -> &[(AccessPattern, u32)] {
        &self.composition
    }

    /// The fields a result cache's key encodes: the name and the
    /// composition. It opens with an exhaustive destructuring, so a new
    /// field fails the build here until it is returned or bound to `_` with
    /// a reason.
    pub fn key_parts(&self) -> (&str, &[(AccessPattern, u32)]) {
        let HeterogeneousMix { name, composition } = self;
        (name, composition)
    }

    /// Total number of tables in the mix.
    pub fn total_tables(&self) -> u32 {
        self.composition.iter().map(|&(_, n)| n).sum()
    }

    /// Iterates over every table in the mix, yielding its pattern. Table
    /// order interleaves groups the way a round-robin sharder would, which
    /// avoids artificially front-loading all hot tables.
    pub fn tables(&self) -> Vec<AccessPattern> {
        let mut remaining: Vec<(AccessPattern, u32)> = self.composition.clone();
        let mut out = Vec::with_capacity(self.total_tables() as usize);
        while remaining.iter().any(|&(_, n)| n > 0) {
            for entry in remaining.iter_mut() {
                if entry.1 > 0 {
                    out.push(entry.0);
                    entry.1 -= 1;
                }
            }
        }
        out
    }

    /// Fraction of tables with the given pattern.
    pub fn fraction_of(&self, pattern: AccessPattern) -> f64 {
        let n: u32 = self
            .composition
            .iter()
            .filter(|&&(p, _)| p == pattern)
            .map(|&(_, n)| n)
            .sum();
        n as f64 / self.total_tables() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mixes_total_250_tables() {
        for kind in MixKind::ALL {
            let mix = HeterogeneousMix::paper_mix(kind, 1.0);
            assert_eq!(mix.total_tables(), 250, "{kind:?}");
        }
    }

    #[test]
    fn mix1_is_hot_heavy_and_mix3_is_cold_heavy() {
        let mix1 = HeterogeneousMix::paper_mix(MixKind::Mix1, 1.0);
        let mix3 = HeterogeneousMix::paper_mix(MixKind::Mix3, 1.0);
        assert!(
            mix1.fraction_of(AccessPattern::HighHot) > mix3.fraction_of(AccessPattern::HighHot)
        );
        assert!(mix1.fraction_of(AccessPattern::Random) < mix3.fraction_of(AccessPattern::Random));
    }

    #[test]
    fn scaling_preserves_every_group() {
        let mix = HeterogeneousMix::paper_mix(MixKind::Mix3, 0.04);
        assert_eq!(mix.composition().len(), 4);
        assert!(mix.composition().iter().all(|&(_, n)| n >= 1));
        assert!(mix.total_tables() <= 12);
    }

    #[test]
    fn tables_interleave_patterns() {
        let mix = HeterogeneousMix::new(
            "test",
            vec![(AccessPattern::HighHot, 2), (AccessPattern::Random, 2)],
        );
        let tables = mix.tables();
        assert_eq!(
            tables,
            vec![
                AccessPattern::HighHot,
                AccessPattern::Random,
                AccessPattern::HighHot,
                AccessPattern::Random
            ]
        );
    }

    #[test]
    fn tables_len_matches_total() {
        for kind in MixKind::ALL {
            let mix = HeterogeneousMix::paper_mix(kind, 0.1);
            assert_eq!(mix.tables().len() as u32, mix.total_tables());
        }
    }

    #[test]
    fn homogeneous_mix_has_one_pattern() {
        let mix = HeterogeneousMix::homogeneous(AccessPattern::MedHot, 8);
        assert_eq!(mix.total_tables(), 8);
        assert!((mix.fraction_of(AccessPattern::MedHot) - 1.0).abs() < 1e-12);
        assert_eq!(mix.fraction_of(AccessPattern::Random), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one table group")]
    fn empty_mix_rejected() {
        let _ = HeterogeneousMix::new("empty", vec![]);
    }

    #[test]
    #[should_panic(expected = "at least one table")]
    fn zero_count_group_rejected() {
        let _ = HeterogeneousMix::new("zero", vec![(AccessPattern::Random, 0)]);
    }
}
