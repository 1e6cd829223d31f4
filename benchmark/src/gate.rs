//! The correctness gate: every output, rendered as FASTA by the program's
//! own record writer, must equal the sequential oracle's byte for byte.

use genio::fasta;
use std::collections::HashMap;

/// Reads checked, and reads that were wrong or missing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    pub fn add(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Render `(id, sequence)` records with the writer `reptile-correct` uses.
pub fn render_fasta<'a>(records: impl Iterator<Item = (u64, &'a Vec<u8>)>) -> Vec<u8> {
    let mut out = Vec::new();
    for (id, seq) in records {
        fasta::write_record(&mut out, id, seq).expect("writing to a Vec cannot fail");
    }
    out
}

fn records(fasta: &[u8]) -> HashMap<&[u8], &[u8]> {
    let mut lines = fasta.split(|&b| b == b'\n');
    let mut out = HashMap::new();
    while let Some(header) = lines.next() {
        if header.is_empty() {
            continue;
        }
        out.insert(header, lines.next().unwrap_or(&[]));
    }
    out
}

/// Compare an output file with the oracle's. Equal bytes pass outright;
/// otherwise each expected record that is absent or different counts as
/// one failure, and so does each record nobody asked for.
pub fn compare_fasta(expected: &[u8], actual: &[u8]) -> Gate {
    let want = records(expected);
    let attempted = want.len() as u64;
    if expected == actual {
        return Gate { attempted, failed: 0 };
    }
    let got = records(actual);
    let wrong = want.iter().filter(|(header, seq)| got.get(*header) != Some(seq)).count();
    let unexpected = got.keys().filter(|header| !want.contains_key(*header)).count();
    // differing bytes that no record accounts for (a reordered or
    // duplicated record, a missing final newline) still fail the file
    let failed = (wrong + unexpected).max(1) as u64;
    Gate { attempted, failed }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(seqs: &[&[u8]]) -> Vec<u8> {
        let owned: Vec<Vec<u8>> = seqs.iter().map(|s| s.to_vec()).collect();
        render_fasta((1..).zip(&owned))
    }

    #[test]
    fn identical_files_pass() {
        let f = file(&[b"ACGT", b"GGCC", b"TTAA"]);
        assert_eq!(compare_fasta(&f, &f), Gate { attempted: 3, failed: 0 });
    }

    #[test]
    fn one_flipped_base_fails_one_read() {
        let want = file(&[b"ACGT", b"GGCC", b"TTAA"]);
        let got = file(&[b"ACGT", b"GGCA", b"TTAA"]);
        assert_eq!(compare_fasta(&want, &got), Gate { attempted: 3, failed: 1 });
    }

    #[test]
    fn a_dropped_read_fails() {
        let want = file(&[b"ACGT", b"GGCC", b"TTAA"]);
        let got = file(&[b"ACGT", b"GGCC"]);
        assert_eq!(compare_fasta(&want, &got), Gate { attempted: 3, failed: 1 });
        assert_eq!(compare_fasta(&want, b""), Gate { attempted: 3, failed: 3 });
    }

    #[test]
    fn extra_and_reordered_records_fail() {
        let want = file(&[b"ACGT", b"GGCC"]);
        let extra = file(&[b"ACGT", b"GGCC", b"TTAA"]);
        assert_eq!(compare_fasta(&want, &extra).failed, 1);
        let reordered = b">2\nGGCC\n>1\nACGT\n".to_vec();
        assert_eq!(compare_fasta(&want, &reordered).failed, 1);
    }

    #[test]
    fn gates_add_up() {
        let mut g = Gate { attempted: 3, failed: 0 };
        g.add(Gate { attempted: 2, failed: 1 });
        assert_eq!(g, Gate { attempted: 5, failed: 1 });
    }
}
