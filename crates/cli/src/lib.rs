//! Command-line front end for the Reptile reproduction.
//!
//! Two binaries:
//!
//! * `reptile-preprocess` — the dataset-preparation step the paper
//!   performs before running Reptile: FASTQ → numbered FASTA + decimal
//!   quality file pair (§III step I / §IV);
//! * `reptile-correct` — run a correction job from a Reptile-style
//!   config file on either engine (threaded ranks or the virtual
//!   cluster), with every heuristic switchable from flags.
//!
//! Argument parsing is hand-rolled (no external CLI dependency): the
//! grammar is tiny and [`ArgParser`] keeps it testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use reptile::ReptileParams;
use reptile_dist::{HeuristicConfig, RecoveryPolicy};

/// A minimal argument cursor: positionals in order, `--key value` and
/// `--flag` options anywhere. Only the options in `VALUED` and
/// `FLAGS` exist; anything else is a [`UsageError`], so a misspelt
/// heuristic flag cannot silently run the job in base mode.
pub struct ArgParser {
    positionals: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

/// Errors from CLI parsing, with the message to print.
#[derive(Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for UsageError {}

/// Option names that take a value.
const VALUED: &[&str] = &[
    "np",
    "engine",
    "partial-group",
    "hot-shards",
    "chunk-size",
    "replicate",
    "scale",
    "build-threads",
    "memory-budget",
    "fault-plan",
    "lookup-deadline",
    "retry-budget",
    "spectrum-out",
    "spectrum-in",
    "parity",
    "repair-policy",
    "serve",
    "open-loop",
    "queue-depth",
    "serve-batch",
];

/// Option names that are plain switches.
const FLAGS: &[&str] = &[
    "universal",
    "batch-reads",
    "read-tables",
    "cache-remote",
    "aggregate",
    "no-load-balance",
    "steal",
    "report",
];

impl ArgParser {
    /// Parse raw arguments (without the program name).
    pub fn parse(args: &[String]) -> Result<ArgParser, UsageError> {
        let mut positionals = Vec::new();
        let mut options = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let (name, inline) = match name.split_once('=') {
                    Some((k, v)) => (k, Some(v)),
                    None => (name, None),
                };
                if VALUED.contains(&name) {
                    let v = match inline {
                        Some(v) => v,
                        None => it
                            .next()
                            .ok_or_else(|| UsageError(format!("--{name} requires a value")))?,
                    };
                    options.push((name.to_string(), Some(v.to_string())));
                } else if !FLAGS.contains(&name) {
                    return Err(UsageError(format!("unknown option --{name}")));
                } else if inline.is_some() {
                    return Err(UsageError(format!("--{name} takes no value")));
                } else {
                    options.push((name.to_string(), None));
                }
            } else {
                positionals.push(a.clone());
            }
        }
        Ok(ArgParser { positionals, options })
    }

    /// Positional argument by index.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(|s| s.as_str())
    }

    /// Number of positionals.
    pub fn n_positionals(&self) -> usize {
        self.positionals.len()
    }

    /// Whether `--name` was given (as a flag or with a value).
    pub fn has(&self, name: &str) -> bool {
        self.options.iter().any(|(k, _)| k == name)
    }

    /// The value of `--name`, if given with one.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, v)| k == name && v.is_some())
            .and_then(|(_, v)| v.as_deref())
    }

    /// Parse `--name N` as an integer, with a default.
    pub fn int(&self, name: &str, default: usize) -> Result<usize, UsageError> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => {
                v.parse().map_err(|_| UsageError(format!("--{name}: '{v}' is not an integer")))
            }
        }
    }
}

/// Build the heuristic configuration from parsed flags.
pub fn heuristics_from_args(args: &ArgParser) -> Result<HeuristicConfig, UsageError> {
    let mut heur = HeuristicConfig {
        universal: args.has("universal"),
        batch_reads: args.has("batch-reads"),
        keep_read_tables: args.has("read-tables"),
        cache_remote: args.has("cache-remote"),
        aggregate_lookups: args.has("aggregate"),
        load_balance: !args.has("no-load-balance"),
        steal_chunks: args.has("steal"),
        ..HeuristicConfig::default()
    };
    match args.value("replicate") {
        None => {}
        Some("kmers") => heur.replicate_kmers = true,
        Some("tiles") => heur.replicate_tiles = true,
        Some("both") => {
            heur.replicate_kmers = true;
            heur.replicate_tiles = true;
        }
        Some(other) => {
            return Err(UsageError(format!(
                "--replicate: expected kmers|tiles|both, got '{other}'"
            )))
        }
    }
    heur.partial_group = args.int("partial-group", 1)?;
    heur.hot_shard_k = args.int("hot-shards", 0)?;
    heur.validate().map_err(UsageError)?;
    Ok(heur)
}

/// Parse `--repair-policy strict|repair[:MAX[:rewrite]]` into a
/// [`RecoveryPolicy`]. Absent flag means [`RecoveryPolicy::Strict`]:
/// any damaged shard aborts the load. `repair` alone allows one lost
/// shard per group; `repair:2` allows two; `repair:2:rewrite` also
/// writes the reconstructed shards back to the snapshot directory.
pub fn recovery_from_args(args: &ArgParser) -> Result<RecoveryPolicy, UsageError> {
    let Some(v) = args.value("repair-policy") else {
        return Ok(RecoveryPolicy::Strict);
    };
    if v == "strict" {
        return Ok(RecoveryPolicy::Strict);
    }
    let mut parts = v.split(':');
    if parts.next() != Some("repair") {
        return Err(UsageError(format!(
            "--repair-policy: expected strict|repair[:MAX[:rewrite]], got '{v}'"
        )));
    }
    let max_lost = match parts.next() {
        None => 1,
        Some(n) => n.parse::<usize>().map_err(|_| {
            UsageError(format!("--repair-policy: '{n}' is not a shard count in '{v}'"))
        })?,
    };
    let rewrite = match parts.next() {
        None => false,
        Some("rewrite") => true,
        Some(other) => {
            return Err(UsageError(format!(
                "--repair-policy: expected 'rewrite' after the count, got '{other}' in '{v}'"
            )))
        }
    };
    if parts.next().is_some() {
        return Err(UsageError(format!(
            "--repair-policy: trailing fields after 'rewrite' in '{v}'"
        )));
    }
    Ok(RecoveryPolicy::Repair { max_lost, rewrite })
}

/// One job of a `--serve` batch file: an input (fasta, qual) pair and the
/// corrected-output path.
#[derive(Debug, PartialEq, Eq)]
pub struct ServeBatch {
    /// Input FASTA.
    pub fasta: std::path::PathBuf,
    /// Input quality file.
    pub qual: std::path::PathBuf,
    /// Corrected-output FASTA path.
    pub output: std::path::PathBuf,
}

/// Parse a serve-mode batch file: one `<fasta> <qual> <output>` triple
/// per line; blank lines and `#` comments are skipped. Two jobs naming
/// the same output path are rejected — the later one would silently
/// clobber the earlier one's corrections.
pub fn parse_serve_batches(text: &str) -> Result<Vec<ServeBatch>, UsageError> {
    let mut batches = Vec::new();
    let mut seen_outputs: std::collections::HashMap<std::path::PathBuf, usize> =
        std::collections::HashMap::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        match (fields.next(), fields.next(), fields.next(), fields.next()) {
            (Some(fa), Some(q), Some(o), None) => {
                let output = std::path::PathBuf::from(o);
                if let Some(&first) = seen_outputs.get(&output) {
                    return Err(UsageError(format!(
                        "serve batch line {}: output '{o}' already produced by line {first} — \
                         the later job would clobber it",
                        i + 1
                    )));
                }
                seen_outputs.insert(output.clone(), i + 1);
                batches.push(ServeBatch { fasta: fa.into(), qual: q.into(), output })
            }
            _ => {
                return Err(UsageError(format!(
                    "serve batch line {}: expected '<fasta> <qual> <output>', got '{line}'",
                    i + 1
                )))
            }
        }
    }
    if batches.is_empty() {
        return Err(UsageError("serve batch file lists no jobs".into()));
    }
    Ok(batches)
}

/// Convert a loaded run config into corrector parameters.
pub fn params_from_config(cfg: &genio::RunConfig) -> ReptileParams {
    ReptileParams {
        k: cfg.k,
        tile_overlap: cfg.tile_overlap,
        kmer_threshold: cfg.kmer_threshold,
        tile_threshold: cfg.tile_threshold,
        q_threshold: cfg.q_threshold,
        max_errors_per_tile: cfg.max_errors_per_tile,
        max_positions_per_tile: cfg.max_positions_per_tile,
        max_candidates: cfg.max_candidates,
        canonical: cfg.canonical,
        ..ReptileParams::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> ArgParser {
        ArgParser::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn positionals_and_flags() {
        let a = parse(&["run.config", "--universal", "--np", "16", "--engine=virtual"]);
        assert_eq!(a.positional(0), Some("run.config"));
        assert_eq!(a.n_positionals(), 1);
        assert!(a.has("universal"));
        assert_eq!(a.value("np"), Some("16"));
        assert_eq!(a.value("engine"), Some("virtual"));
        assert_eq!(a.int("np", 4).unwrap(), 16);
        assert_eq!(a.int("chunk-size", 2000).unwrap(), 2000);
    }

    #[test]
    fn fault_flags_take_values() {
        let a = parse(&[
            "run.config",
            "--build-threads",
            "4",
            "--fault-plan",
            "seed=7,drop=0.1",
            "--lookup-deadline",
            "25ms",
            "--retry-budget",
            "5",
        ]);
        assert_eq!(a.n_positionals(), 1);
        assert_eq!(a.value("build-threads"), Some("4"));
        assert_eq!(a.value("fault-plan"), Some("seed=7,drop=0.1"));
        assert_eq!(a.value("lookup-deadline"), Some("25ms"));
        assert_eq!(a.int("retry-budget", 0).unwrap(), 5);
    }

    #[test]
    fn missing_value_is_error() {
        let err =
            ArgParser::parse(&["--np".to_string()]).err().expect("np without value must fail");
        assert!(err.0.contains("--np"));
    }

    fn parse_err(args: &[&str]) -> String {
        ArgParser::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
            .err()
            .expect("must be rejected")
            .0
    }

    /// The typo that used to run base mode with exit 0.
    #[test]
    fn misspelt_flag_is_rejected_by_name() {
        assert_eq!(
            parse_err(&["run.config", "--np", "4", "--agregate"]),
            "unknown option --agregate"
        );
    }

    #[test]
    fn unknown_valued_option_is_rejected_by_name() {
        assert_eq!(parse_err(&["run.config", "--threads=4"]), "unknown option --threads");
    }

    #[test]
    fn switch_given_a_value_is_rejected() {
        assert_eq!(parse_err(&["run.config", "--aggregate=yes"]), "--aggregate takes no value");
    }

    /// Every option `correct.rs` documents still parses, in both the
    /// `--key value` and the `--key=value` form.
    #[test]
    fn every_documented_option_parses() {
        let mut line = vec!["run.config".to_string()];
        for name in VALUED {
            line.extend([format!("--{name}"), "1".to_string(), format!("--{name}=1")]);
        }
        line.extend(FLAGS.iter().map(|name| format!("--{name}")));
        let a = ArgParser::parse(&line).expect("documented options");
        assert_eq!(a.n_positionals(), 1);
        assert!(VALUED.iter().all(|name| a.value(name) == Some("1")));
        assert!(FLAGS.iter().all(|name| a.has(name)));
        let doc = include_str!("bin/correct.rs");
        for name in VALUED.iter().chain(FLAGS) {
            assert!(doc.contains(&format!("//!   --{name} ")), "--{name} is not documented");
        }
        let documented = doc.lines().filter(|l| l.starts_with("//!   --")).count();
        assert_eq!(documented, VALUED.len() + FLAGS.len(), "a documented option does not parse");
    }

    /// The command lines the repo benchmark builds.
    #[test]
    fn benchmark_command_lines_parse() {
        for flags in [
            vec!["--np", "4"],
            vec!["--np", "4", "--aggregate"],
            vec!["--np", "2", "--replicate", "both"],
            vec!["--np", "2", "--replicate", "both", "--parity", "1", "--spectrum-out", "snap"],
        ] {
            let a = parse(&[&["run.config"], flags.as_slice()].concat());
            assert_eq!(a.int("np", 8).unwrap().to_string(), flags[1]);
            assert_eq!(a.has("aggregate"), flags.contains(&"--aggregate"));
        }
    }

    #[test]
    fn heuristics_mapping() {
        let a = parse(&["c", "--universal", "--batch-reads"]);
        let h = heuristics_from_args(&a).unwrap();
        assert!(h.universal && h.batch_reads && h.load_balance);
        assert!(!h.aggregate_lookups);
        let a = parse(&["c", "--aggregate"]);
        assert!(heuristics_from_args(&a).unwrap().aggregate_lookups);
        let a = parse(&["c", "--replicate", "both", "--no-load-balance"]);
        let h = heuristics_from_args(&a).unwrap();
        assert!(h.replicate_kmers && h.replicate_tiles && !h.load_balance);
        let a = parse(&["c", "--partial-group", "8"]);
        assert_eq!(heuristics_from_args(&a).unwrap().partial_group, 8);
        let a = parse(&["c", "--hot-shards", "2", "--steal"]);
        let h = heuristics_from_args(&a).unwrap();
        assert_eq!(h.hot_shard_k, 2);
        assert!(h.steal_chunks);
    }

    #[test]
    fn invalid_heuristics_rejected() {
        // cache-remote without read-tables
        let a = parse(&["c", "--cache-remote"]);
        assert!(heuristics_from_args(&a).is_err());
        // bad replicate value
        let a = parse(&["c", "--replicate", "everything"]);
        assert!(heuristics_from_args(&a).is_err());
        // partial replication + full replication
        let a = parse(&["c", "--replicate", "tiles", "--partial-group", "4"]);
        assert!(heuristics_from_args(&a).is_err());
    }

    #[test]
    fn snapshot_flags_take_values() {
        let a = parse(&["c", "--spectrum-out", "snap/", "--spectrum-in", "old/", "--serve", "b"]);
        assert_eq!(a.value("spectrum-out"), Some("snap/"));
        assert_eq!(a.value("spectrum-in"), Some("old/"));
        assert_eq!(a.value("serve"), Some("b"));
    }

    #[test]
    fn repair_policy_parses_every_form() {
        let a = parse(&["c"]);
        assert_eq!(recovery_from_args(&a).unwrap(), RecoveryPolicy::Strict);
        let a = parse(&["c", "--repair-policy", "strict"]);
        assert_eq!(recovery_from_args(&a).unwrap(), RecoveryPolicy::Strict);
        let a = parse(&["c", "--repair-policy", "repair"]);
        assert_eq!(
            recovery_from_args(&a).unwrap(),
            RecoveryPolicy::Repair { max_lost: 1, rewrite: false }
        );
        let a = parse(&["c", "--repair-policy", "repair:2"]);
        assert_eq!(
            recovery_from_args(&a).unwrap(),
            RecoveryPolicy::Repair { max_lost: 2, rewrite: false }
        );
        let a = parse(&["c", "--repair-policy=repair:2:rewrite"]);
        assert_eq!(
            recovery_from_args(&a).unwrap(),
            RecoveryPolicy::Repair { max_lost: 2, rewrite: true }
        );
    }

    #[test]
    fn repair_policy_rejects_malformed_values() {
        for bad in ["fix", "repair:x", "repair:1:readonly", "repair:1:rewrite:more", "strict:1", ""]
        {
            let a = parse(&["c", &format!("--repair-policy={bad}")]);
            let err = recovery_from_args(&a);
            assert!(err.is_err(), "'{bad}' must be rejected");
            assert!(err.unwrap_err().0.contains("--repair-policy"));
        }
        // parity flag is valued
        let a = parse(&["c", "--parity", "2"]);
        assert_eq!(a.int("parity", 0).unwrap(), 2);
    }

    #[test]
    fn serve_batches_parse_and_reject() {
        let text = "# corrections to run\n\na.fa a.q out1.fa\n  b.fa b.q out2.fa  \n";
        let batches = parse_serve_batches(text).unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].fasta, std::path::PathBuf::from("a.fa"));
        assert_eq!(batches[1].output, std::path::PathBuf::from("out2.fa"));
        assert!(parse_serve_batches("a.fa a.q\n").is_err());
        assert!(parse_serve_batches("a b c d\n").is_err());
        assert!(parse_serve_batches("# nothing\n").is_err());
    }

    #[test]
    fn serve_batches_reject_duplicate_outputs() {
        let text = "# jobs\na.fa a.q out.fa\nb.fa b.q other.fa\n\nc.fa c.q out.fa\n";
        let err = parse_serve_batches(text).expect_err("duplicate output must be rejected");
        // the message names both the clobbering line and the original
        assert!(err.0.contains("line 5"), "missing duplicate line: {err}");
        assert!(err.0.contains("line 2"), "missing original line: {err}");
        assert!(err.0.contains("out.fa"), "missing the path: {err}");
        // distinct outputs stay fine
        assert!(parse_serve_batches("a.fa a.q o1.fa\nb.fa b.q o2.fa\n").is_ok());
    }

    #[test]
    fn serve_tuning_flags_take_values() {
        let a = parse(&[
            "c",
            "--serve",
            "b.txt",
            "--open-loop",
            "50000",
            "--queue-depth",
            "1024",
            "--serve-batch",
            "128",
        ]);
        assert_eq!(a.value("open-loop"), Some("50000"));
        assert_eq!(a.int("queue-depth", 4096).unwrap(), 1024);
        assert_eq!(a.int("serve-batch", 256).unwrap(), 128);
    }

    #[test]
    fn params_from_config_copies_fields() {
        let cfg =
            genio::RunConfig { k: 14, tile_overlap: 7, canonical: true, ..Default::default() };
        let p = params_from_config(&cfg);
        assert_eq!(p.k, 14);
        assert_eq!(p.tile_overlap, 7);
        assert!(p.canonical);
        p.assert_valid();
    }
}
