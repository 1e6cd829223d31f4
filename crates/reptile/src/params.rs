//! Algorithm parameters.

use dnaseq::{KmerCodec, TileCodec};

/// Thresholds and search knobs of the Reptile corrector.
///
/// Defaults follow the original Reptile's published configuration spirit:
/// small k (genome-size dependent), low count thresholds, Phred-20 quality
/// cutoff, at most two substitutions per tile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReptileParams {
    /// K-mer length (`1..=32`).
    pub k: usize,
    /// Overlap between a tile's two k-mers (`1..k`).
    pub tile_overlap: usize,
    /// Minimum global count for a k-mer to be considered solid.
    pub kmer_threshold: u32,
    /// Minimum global count for a tile to be considered solid.
    ///
    /// Note the count scales: a read contributes a k-mer at *every*
    /// position but a tile only once per `k − tile_overlap` positions
    /// (the tiling stride), so at equal coverage tile counts run ~stride
    /// times lower than k-mer counts — size this threshold accordingly
    /// (original Reptile likewise configures the two independently).
    pub tile_threshold: u32,
    /// Phred score below which a base is a candidate error position.
    pub q_threshold: u8,
    /// Maximum substitutions attempted per tile.
    pub max_errors_per_tile: usize,
    /// Cap on candidate positions per tile (candidate-explosion guard;
    /// the lowest-quality positions win).
    pub max_positions_per_tile: usize,
    /// Reject the correction when more than this many solid alternatives
    /// survive (ambiguity cutoff, Reptile's cardinality test).
    pub max_candidates: usize,
    /// Require the best candidate's count to be at least `dominance`
    /// times the runner-up's before committing a correction.
    pub dominance: u32,
    /// If no base in a weak tile is below `q_threshold`, widen the search
    /// to the lowest-quality positions anyway (`false` = strict: skip).
    pub relax_quality: bool,
    /// Fold k-mers/tiles with their reverse complements in the spectrum
    /// (use when reads come from both strands).
    pub canonical: bool,
}

impl Default for ReptileParams {
    fn default() -> ReptileParams {
        ReptileParams {
            k: 12,
            tile_overlap: 6,
            kmer_threshold: 3,
            tile_threshold: 3,
            q_threshold: 20,
            max_errors_per_tile: 2,
            max_positions_per_tile: 8,
            max_candidates: 4,
            dominance: 2,
            relax_quality: true,
            canonical: false,
        }
    }
}

impl ReptileParams {
    /// Check the invariants: `k` in `1..=32`, `tile_overlap` in `1..k`,
    /// a tile of at most 64 bases, and at least one error, candidate and
    /// unit of dominance per tile.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=32).contains(&self.k) {
            return Err(format!("k out of range: {}", self.k));
        }
        if self.tile_overlap < 1 || self.tile_overlap >= self.k {
            return Err(format!("tile_overlap out of range: {} (k={})", self.tile_overlap, self.k));
        }
        if self.tile_len() > 64 {
            return Err("tile too long".into());
        }
        if self.max_errors_per_tile < 1 {
            return Err("max_errors_per_tile must be at least 1".into());
        }
        if self.max_candidates < 1 {
            return Err("max_candidates must be at least 1".into());
        }
        if self.dominance < 1 {
            return Err("dominance must be at least 1".into());
        }
        Ok(())
    }

    /// [`validate`](Self::validate) for callers handed parameters an
    /// engine config already checked; panics with the violation.
    pub fn assert_valid(&self) {
        self.validate().unwrap_or_else(|e| panic!("{e}"));
    }

    /// The k-mer codec these parameters imply.
    pub fn kmer_codec(&self) -> KmerCodec {
        KmerCodec::new(self.k)
    }

    /// The tile codec these parameters imply.
    pub fn tile_codec(&self) -> TileCodec {
        TileCodec::new(self.k, self.tile_overlap)
    }

    /// Tile length in bases.
    pub fn tile_len(&self) -> usize {
        2 * self.k - self.tile_overlap
    }

    /// Parameters scaled for small test genomes (short k so k-mers repeat
    /// at low coverage).
    pub fn for_tests() -> ReptileParams {
        ReptileParams {
            k: 8,
            tile_overlap: 4,
            kmer_threshold: 2,
            tile_threshold: 2,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_valid() {
        ReptileParams::default().assert_valid();
        ReptileParams::for_tests().assert_valid();
    }

    #[test]
    fn codecs_consistent() {
        let p = ReptileParams::default();
        assert_eq!(p.kmer_codec().k(), p.k);
        assert_eq!(p.tile_codec().len(), p.tile_len());
        assert_eq!(p.tile_codec().stride(), p.k - p.tile_overlap);
    }

    #[test]
    #[should_panic(expected = "tile_overlap")]
    fn invalid_overlap_panics() {
        ReptileParams { tile_overlap: 12, k: 12, ..Default::default() }.assert_valid();
    }

    #[test]
    fn validate_names_the_violation() {
        let k = ReptileParams { k: 40, ..Default::default() }.validate().unwrap_err();
        assert_eq!(k, "k out of range: 40");
        let overlap = ReptileParams { tile_overlap: 0, ..Default::default() };
        assert!(overlap.validate().unwrap_err().starts_with("tile_overlap"));
        let dominance = ReptileParams { dominance: 0, ..Default::default() };
        assert!(dominance.validate().is_err());
    }
}
