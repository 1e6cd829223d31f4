//! End-to-end tests of the two binaries: preprocess a FASTQ, then run a
//! correction job from a config file, checking outputs on disk.

use std::process::Command;

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("reptile-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Build a small FASTQ with enough template repetition for correction.
fn write_fastq(path: &std::path::Path) {
    let template = b"ACGTACGGTTGCAACGTTAGCATGGACTTAG";
    let mut out = Vec::new();
    for i in 0..30 {
        let mut seq = template.to_vec();
        let mut qual = vec![b'I'; seq.len()]; // Phred 40
        if i == 0 {
            // one read with a low-quality error
            seq[10] = b'A';
            qual[10] = b'#'; // Phred 2
        }
        out.extend_from_slice(format!("@read{i}\n").as_bytes());
        out.extend_from_slice(&seq);
        out.extend_from_slice(b"\n+\n");
        out.extend_from_slice(&qual);
        out.push(b'\n');
    }
    std::fs::write(path, out).unwrap();
}

#[test]
fn preprocess_then_correct_pipeline() {
    let dir = tempdir("pipe");
    let fastq = dir.join("in.fastq");
    let fasta = dir.join("reads.fa");
    let qual = dir.join("reads.qual");
    let output = dir.join("corrected.fa");
    write_fastq(&fastq);

    // --- preprocess ---
    let status = Command::new(env!("CARGO_BIN_EXE_reptile-preprocess"))
        .args([&fastq, &fasta, &qual])
        .output()
        .expect("run preprocess");
    assert!(status.status.success(), "{}", String::from_utf8_lossy(&status.stderr));
    assert!(String::from_utf8_lossy(&status.stdout).contains("converted 30 reads"));
    let fa_text = std::fs::read_to_string(&fasta).unwrap();
    assert!(fa_text.starts_with(">1\n"), "numbered headers expected");

    // --- config + correct ---
    let config = dir.join("run.config");
    std::fs::write(
        &config,
        format!(
            "fasta_file = {}\nqual_file = {}\noutput_file = {}\n\
             k = 8\ntile_overlap = 4\nkmer_threshold = 3\ntile_threshold = 3\n\
             chunk_size = 10\n",
            fasta.display(),
            qual.display(),
            output.display()
        ),
    )
    .unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_reptile-correct"))
        .args([config.to_str().unwrap(), "--np", "3", "--universal", "--report"])
        .output()
        .expect("run correct");
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(stdout.contains("errors corrected"), "{stdout}");
    assert!(stdout.contains("universal"), "{stdout}");
    assert!(stdout.contains("makespan"), "--report table expected: {stdout}");

    // corrected output exists, read 1's error fixed
    let corrected = std::fs::read_to_string(&output).unwrap();
    assert!(corrected.starts_with(">1\n"));
    let first_seq = corrected.lines().nth(1).unwrap();
    assert_eq!(first_seq.as_bytes(), b"ACGTACGGTTGCAACGTTAGCATGGACTTAG", "error corrected");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn correct_with_virtual_engine() {
    let dir = tempdir("virt");
    let fastq = dir.join("in.fastq");
    let fasta = dir.join("reads.fa");
    let qual = dir.join("reads.qual");
    let output = dir.join("corrected.fa");
    write_fastq(&fastq);
    Command::new(env!("CARGO_BIN_EXE_reptile-preprocess"))
        .args([&fastq, &fasta, &qual])
        .status()
        .unwrap();
    let config = dir.join("run.config");
    std::fs::write(
        &config,
        format!(
            "fasta_file = {}\nqual_file = {}\noutput_file = {}\n\
             k = 8\ntile_overlap = 4\nkmer_threshold = 3\ntile_threshold = 3\n",
            fasta.display(),
            qual.display(),
            output.display()
        ),
    )
    .unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_reptile-correct"))
        .args([config.to_str().unwrap(), "--engine", "virtual", "--np", "64", "--batch-reads"])
        .output()
        .unwrap();
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    assert!(output.exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = Command::new(env!("CARGO_BIN_EXE_reptile-correct")).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    let out = Command::new(env!("CARGO_BIN_EXE_reptile-preprocess"))
        .args(["only-one-arg"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    // nonexistent config file
    let out = Command::new(env!("CARGO_BIN_EXE_reptile-correct"))
        .args(["/nonexistent/run.config"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn serve_rejects_the_virtual_engine() {
    let dir = tempdir("serve-virt");
    let config = dir.join("run.config");
    std::fs::write(
        &config,
        "fasta_file = reads.fa\nqual_file = reads.qual\noutput_file = out.fa\n\
         k = 8\ntile_overlap = 4\nkmer_threshold = 3\ntile_threshold = 3\n",
    )
    .unwrap();
    let batches = dir.join("batches.txt");
    std::fs::write(&batches, "reads.fa reads.qual out1.fa\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_reptile-correct"))
        .args([config.to_str().unwrap(), "--engine", "virtual", "--np", "4"])
        .args(["--spectrum-in", dir.join("snap").to_str().unwrap()])
        .args(["--serve", batches.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage") && stderr.contains("--serve"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
