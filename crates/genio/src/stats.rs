//! Dataset inventory statistics (paper Table I).

use crate::dataset::DatasetProfile;

/// The Table I row for a dataset: reads, read length, genome size and the
/// derived coverage `(length × reads) / genome`.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetStats {
    /// Dataset name.
    pub name: String,
    /// Number of reads.
    pub n_reads: u64,
    /// Read length in characters (the paper's datasets are fixed-length).
    pub read_len: usize,
    /// Genome size in bases.
    pub genome_size: u64,
}

impl DatasetStats {
    /// Stats straight from a profile (paper-scale or scaled).
    pub fn from_profile(p: &DatasetProfile) -> DatasetStats {
        DatasetStats {
            name: p.name.clone(),
            n_reads: p.n_reads as u64,
            read_len: p.read_len,
            genome_size: p.genome_len as u64,
        }
    }

    /// Read coverage, as defined under Table I.
    pub fn coverage(&self) -> f64 {
        if self.genome_size == 0 {
            return 0.0;
        }
        self.read_len as f64 * self.n_reads as f64 / self.genome_size as f64
    }

    /// Format as a Table I row: `name  reads  length  genome  coverage`.
    pub fn table_row(&self) -> String {
        format!(
            "{:<18} {:>13} {:>8} {:>12.3e} {:>7.0}X",
            self.name,
            self.n_reads,
            self.read_len,
            self.genome_size as f64,
            self.coverage()
        )
    }

    /// The Table I header matching [`table_row`].
    ///
    /// [`table_row`]: DatasetStats::table_row
    pub fn table_header() -> String {
        format!(
            "{:<18} {:>13} {:>8} {:>12} {:>8}",
            "Genome", "Reads", "Length", "GenomeSize", "Coverage"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_profiles_reproduce_table_one() {
        // E.coli coverage is the *computed* value; the paper's printed 96X
        // contradicts its own formula (see dataset.rs tests).
        let rows = [
            (DatasetProfile::ecoli_like(), 8_874_761u64, 102, 4_600_000u64, 196.8),
            (DatasetProfile::drosophila_like(), 95_674_872, 96, 122_000_000, 75.0),
            (DatasetProfile::human_like(), 1_549_111_800, 102, 3_300_000_000, 47.0),
        ];
        for (prof, n, len, g, cov) in rows {
            let s = DatasetStats::from_profile(&prof);
            assert_eq!(s.n_reads, n);
            assert_eq!(s.read_len, len);
            assert_eq!(s.genome_size, g);
            assert!((s.coverage() - cov).abs() < 3.0, "{} -> {}", s.name, s.coverage());
        }
    }

    #[test]
    fn coverage_handles_zero_genome() {
        let s = DatasetStats { name: "z".into(), n_reads: 5, read_len: 10, genome_size: 0 };
        assert_eq!(s.coverage(), 0.0);
    }

    #[test]
    fn table_row_formats() {
        let s = DatasetStats::from_profile(&DatasetProfile::ecoli_like());
        let row = s.table_row();
        assert!(row.contains("E.coli"));
        assert!(row.contains("8874761"));
        assert!(!DatasetStats::table_header().is_empty());
    }
}
