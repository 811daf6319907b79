//! Integration tests of the `genasm` CLI, driven in-process.

use genasm_cli::run;

fn run_ok(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    run(&args, &mut out).unwrap_or_else(|e| panic!("command failed: {e}"));
    String::from_utf8(out).expect("utf8 output")
}

fn run_err(args: &[&str]) -> genasm_cli::CliError {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    run(&args, &mut out).expect_err("command should fail")
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("genasm-cli-test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_prints_usage() {
    let out = run_ok(&["help"]);
    assert!(out.contains("genasm simulate"));
    assert!(out.contains("genasm align"));
}

#[test]
fn unknown_subcommand_is_usage_error() {
    let e = run_err(&["frobnicate"]);
    assert_eq!(e.code, 2);
    assert!(e.message.contains("unknown subcommand"));
}

#[test]
fn missing_flag_is_usage_error() {
    let e = run_err(&["simulate", "--genome-len", "1000"]);
    assert_eq!(e.code, 2);
    assert!(e.message.contains("--ref"));
}

#[test]
fn simulate_map_align_pipeline() {
    let dir = tmpdir("pipeline");
    let ref_path = dir.join("ref.fa");
    let reads_path = dir.join("reads.fq");
    let out = run_ok(&[
        "simulate",
        "--genome-len",
        "120000",
        "--reads",
        "4",
        "--read-len",
        "1500",
        "--error",
        "0.08",
        "--seed",
        "5",
        "--ref",
        ref_path.to_str().unwrap(),
        "--out",
        reads_path.to_str().unwrap(),
    ]);
    assert!(out.contains("120000 bp reference"));
    assert!(out.contains("4 reads"));

    // map: PAF-like rows, one per chain.
    let paf = run_ok(&[
        "map",
        "--ref",
        ref_path.to_str().unwrap(),
        "--reads",
        reads_path.to_str().unwrap(),
    ]);
    let rows: Vec<&str> = paf.lines().collect();
    assert!(rows.len() >= 4, "every read should map:\n{paf}");
    for row in &rows {
        let cols: Vec<&str> = row.split('\t').collect();
        assert_eq!(cols.len(), 11, "bad PAF row: {row}");
        assert!(cols[4] == "+" || cols[4] == "-");
        // The read name encodes the true position; the best chain
        // should be near it for at least the first record (checked
        // loosely: name parse works).
        assert!(cols[0].starts_with("read"));
    }

    // align with each aligner; distances must agree on ordering
    // (genasm >= edlib per pair).
    let genasm_out = run_ok(&[
        "align",
        "--ref",
        ref_path.to_str().unwrap(),
        "--reads",
        reads_path.to_str().unwrap(),
        "--aligner",
        "genasm",
    ]);
    let edlib_out = run_ok(&[
        "align",
        "--ref",
        ref_path.to_str().unwrap(),
        "--reads",
        reads_path.to_str().unwrap(),
        "--aligner",
        "edlib",
    ]);
    let parse_best = |s: &str| -> Vec<(String, usize)> {
        let mut best: Vec<(String, usize)> = Vec::new();
        for line in s.lines() {
            let cols: Vec<&str> = line.split('\t').collect();
            let name = cols[0].to_string();
            let dist: usize = cols[5].parse().unwrap();
            match best.iter_mut().find(|(n, _)| *n == name) {
                Some((_, d)) => *d = (*d).min(dist),
                None => best.push((name, dist)),
            }
        }
        best
    };
    let gb = parse_best(&genasm_out);
    let eb = parse_best(&edlib_out);
    assert_eq!(gb.len(), eb.len());
    for ((gn, gd), (en, ed)) in gb.iter().zip(&eb) {
        assert_eq!(gn, en);
        assert!(
            gd >= ed,
            "genasm best {gd} below exact optimum {ed} for {gn}"
        );
        // 8% error on 1500 bp: distance should be loosely near 120.
        assert!(*ed > 20 && *ed < 500, "implausible distance {ed} for {en}");
    }

    // CIGAR column is parseable and consistent with the distance.
    for line in genasm_out.lines().take(3) {
        let cols: Vec<&str> = line.split('\t').collect();
        let cigar = align_core::Cigar::parse(cols[6]).unwrap();
        let dist: usize = cols[5].parse().unwrap();
        assert_eq!(cigar.edit_cost(), dist);
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// Simulate a small workload into `dir`, returning (ref, reads) paths.
fn simulate_workload(dir: &std::path::Path, reads: usize, read_len: usize) -> (String, String) {
    let ref_path = dir.join("ref.fa").to_str().unwrap().to_string();
    let reads_path = dir.join("reads.fq").to_str().unwrap().to_string();
    run_ok(&[
        "simulate",
        "--genome-len",
        "90000",
        "--reads",
        &reads.to_string(),
        "--read-len",
        &read_len.to_string(),
        "--error",
        "0.08",
        "--seed",
        "11",
        "--ref",
        &ref_path,
        "--out",
        &reads_path,
    ]);
    (ref_path, reads_path)
}

#[test]
fn pipeline_matches_align_byte_for_byte_on_every_backend() {
    let dir = tmpdir("pipeline-vs-align");
    let (ref_path, reads_path) = simulate_workload(&dir, 5, 900);

    // (align --aligner X, pipeline --backend Y) pairs that must agree.
    // gpu-sim runs the same GenASM algorithm as the CPU path (the GPU
    // port is property-tested to produce identical CIGARs), so it is
    // compared against the genasm aligner output.
    let pairs = [
        ("genasm", "cpu"),
        ("edlib", "edlib"),
        ("ksw2", "ksw2"),
        ("genasm", "gpu-sim"),
    ];
    for (aligner, backend) in pairs {
        let align_out = run_ok(&[
            "align",
            "--ref",
            &ref_path,
            "--reads",
            &reads_path,
            "--aligner",
            aligner,
        ]);
        assert!(!align_out.is_empty(), "align produced no records");
        // Sweep batching geometry: output must not depend on it.
        for (batch_bases, queue_depth) in [("4096", "1"), ("1048576", "8")] {
            let pipe_out = run_ok(&[
                "pipeline",
                "--ref",
                &ref_path,
                "--reads",
                &reads_path,
                "--backend",
                backend,
                "--batch-bases",
                batch_bases,
                "--queue-depth",
                queue_depth,
            ]);
            assert_eq!(
                pipe_out, align_out,
                "pipeline --backend {backend} (batch {batch_bases}, depth {queue_depth}) \
                 diverged from align --aligner {aligner}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn align_and_pipeline_emit_parseable_cigar_and_identity() {
    let dir = tmpdir("identity-cols");
    let (ref_path, reads_path) = simulate_workload(&dir, 3, 700);
    for cmd in ["align", "pipeline"] {
        let out = run_ok(&[cmd, "--ref", &ref_path, "--reads", &reads_path]);
        assert!(!out.is_empty(), "{cmd} produced no records");
        for line in out.lines() {
            let rec = genasm_pipeline::AlignRecord::parse_tsv(line)
                .unwrap_or_else(|e| panic!("{cmd} row {line:?} unparseable: {e}"));
            // CIGAR must be consistent with the distance column, and
            // identity with the CIGAR.
            assert_eq!(rec.cigar.edit_cost(), rec.edit_distance, "{cmd}: {line}");
            let (m, x, i, d) = rec.cigar.op_counts();
            let expect = m as f64 / (m + x + i + d) as f64;
            assert!(
                (rec.identity - expect).abs() < 5e-5,
                "{cmd}: identity {} != {expect} in {line}",
                rec.identity
            );
            assert!(rec.identity > 0.5, "implausible identity in {line}");
            assert_eq!(rec.tend - rec.tstart, {
                let (m2, x2, _, d2) = rec.cigar.op_counts();
                m2 + x2 + d2
            });
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_aligner_and_backend_list_valid_choices() {
    let e = run_err(&[
        "align",
        "--ref",
        "/nope",
        "--reads",
        "/nope",
        "--aligner",
        "bwa",
    ]);
    assert_eq!(e.code, 2);
    for name in ["genasm", "genasm-base", "edlib", "ksw2"] {
        assert!(e.message.contains(name), "missing {name}: {}", e.message);
    }

    // `auto` is no backend: rejected like any unknown name.
    for args in [
        [
            "pipeline",
            "--ref",
            "/nope",
            "--reads",
            "/nope",
            "--backend",
            "tpu",
        ],
        [
            "pipeline",
            "--ref",
            "/nope",
            "--reads",
            "/nope",
            "--backend",
            "auto",
        ],
        [
            "serve",
            "--ref",
            "/nope",
            "--listen",
            "127.0.0.1:0",
            "--backend",
            "auto",
        ],
        [
            "submit",
            "--to",
            "127.0.0.1:1",
            "--reads",
            "/nope",
            "--backend",
            "auto",
        ],
    ] {
        let e = run_err(&args);
        assert_eq!(e.code, 2, "{args:?}: {}", e.message);
        assert_eq!(
            e.message,
            format!(
                "unknown backend '{}'; valid backends are 'cpu', 'gpu-sim', 'edlib', 'ksw2'",
                args[6]
            )
        );
    }
}

#[test]
fn threads_flag_sizes_the_global_pool() {
    let dir = tmpdir("threads");
    let (ref_path, reads_path) = simulate_workload(&dir, 2, 600);
    let baseline = run_ok(&["align", "--ref", &ref_path, "--reads", &reads_path]);
    let threaded = run_ok(&[
        "align",
        "--ref",
        &ref_path,
        "--reads",
        &reads_path,
        "--threads",
        "3",
    ]);
    assert_eq!(baseline, threaded, "thread count must not change output");
    // The flag really did reconfigure the global pool.
    assert_eq!(rayon::current_num_threads(), 3);
    // Restore the default so other tests in this binary keep all cores.
    run_ok(&[
        "align",
        "--ref",
        &ref_path,
        "--reads",
        &reads_path,
        "--threads",
        "0",
    ]);
    assert!(rayon::current_num_threads() >= 1);

    let e = run_err(&[
        "align",
        "--ref",
        &ref_path,
        "--reads",
        &reads_path,
        "--threads",
        "lots",
    ]);
    assert_eq!(e.code, 2);
    assert!(e.message.contains("--threads"), "{}", e.message);
    std::fs::remove_dir_all(&dir).ok();
}

/// Only `serve` still takes `--shards` (one index covers the reference
/// whatever it says; `multi_contig_serve_and_submit_match_align` runs
/// `serve --shards 4` against `align`), and it must be at least 1.
/// `--shard-overlap` is gone everywhere.
#[test]
fn serve_alone_accepts_shards_and_no_subcommand_takes_an_overlap() {
    let e = run_err(&[
        "serve", "--ref", "r.fa", "--listen", "unix:x", "--shards", "0",
    ]);
    assert_eq!(e.code, 2);
    assert!(
        e.message.contains("--shards must be at least 1"),
        "{}",
        e.message
    );
    for cmd in ["map", "align", "pipeline"] {
        let e = run_err(&[cmd, "--ref", "r.fa", "--reads", "q.fa", "--shards", "2"]);
        assert_eq!(e.code, 2, "{cmd}");
        assert!(e.message.contains("unknown flag --shards"), "{}", e.message);
    }
    for cmd in ["map", "align", "pipeline", "serve"] {
        let e = run_err(&[cmd, "--shard-overlap", "64"]);
        assert_eq!(e.code, 2, "{cmd}");
        assert!(
            e.message.contains("unknown flag --shard-overlap"),
            "{}",
            e.message
        );
    }
}

#[test]
fn pipeline_usage_mentions_backends_and_metrics_go_to_stderr() {
    let out = run_ok(&["help"]);
    assert!(out.contains("genasm pipeline"), "{out}");
    assert!(out.contains("--backend"), "{out}");
    assert!(out.contains("--shards"), "{out}");
    // stdout purity: enabling metrics must not change the records on
    // stdout (the summary goes to stderr).
    let dir = tmpdir("metrics-stdout");
    let (ref_path, reads_path) = simulate_workload(&dir, 2, 600);
    let plain = run_ok(&["pipeline", "--ref", &ref_path, "--reads", &reads_path]);
    let with_metrics = run_ok(&[
        "pipeline",
        "--ref",
        &ref_path,
        "--reads",
        &reads_path,
        "--metrics",
        "on",
    ]);
    assert_eq!(plain, with_metrics);
    std::fs::remove_dir_all(&dir).ok();
}

/// A mistyped `--metrics` value is a usage error naming the valid
/// ones, not a silent summary.
#[test]
fn metrics_flag_accepts_only_off_on_json() {
    for (args, value) in [
        (["pipeline", "--ref", "/nope", "--reads", "/nope"], "jsno"),
        (["serve", "--ref", "/nope", "--listen", "127.0.0.1:0"], "1"),
    ] {
        let mut args = args.to_vec();
        args.extend(["--metrics", value]);
        let e = run_err(&args);
        assert_eq!(e.code, 2, "{args:?}: {}", e.message);
        assert_eq!(
            e.message,
            format!("bad value for --metrics: {value:?}; valid values are off, on, json")
        );
    }
}

#[test]
fn format_paf_is_identical_across_align_and_pipeline_and_parses() {
    let dir = tmpdir("paf-format");
    let (ref_path, reads_path) = simulate_workload(&dir, 5, 800);

    let align_paf = run_ok(&[
        "align",
        "--ref",
        &ref_path,
        "--reads",
        &reads_path,
        "--format",
        "paf",
    ]);
    let pipeline_paf = run_ok(&[
        "pipeline",
        "--ref",
        &ref_path,
        "--reads",
        &reads_path,
        "--format",
        "paf",
    ]);
    assert_eq!(align_paf, pipeline_paf, "PAF output diverged across paths");
    let tsv = run_ok(&["align", "--ref", &ref_path, "--reads", &reads_path]);
    assert_eq!(
        align_paf.lines().count(),
        tsv.lines().count(),
        "same records, different format"
    );

    // Golden row-level properties: every PAF row parses back, agrees
    // with the TSV row on the shared columns, and carries the full
    // reference length and the mapping strand (which TSV cannot).
    for (paf_line, tsv_line) in align_paf.lines().zip(tsv.lines()) {
        let paf = genasm_pipeline::AlignRecord::parse_paf(paf_line)
            .unwrap_or_else(|e| panic!("unparseable PAF row {paf_line:?}: {e}"));
        let tsv = genasm_pipeline::AlignRecord::parse_tsv(tsv_line).unwrap();
        assert_eq!(paf.qname, tsv.qname);
        assert_eq!(paf.qlen, tsv.qlen);
        assert_eq!(paf.tstart, tsv.tstart);
        assert_eq!(paf.tend, tsv.tend);
        assert_eq!(paf.edit_distance, tsv.edit_distance);
        assert_eq!(paf.cigar, tsv.cigar);
        assert_eq!(paf.tsize, 90000, "PAF column 7 is the reference length");
    }
    // Strand fidelity in aggregate: the best row of every read agrees
    // with the strand encoded in its simulated name.
    let mut best: std::collections::HashMap<String, genasm_pipeline::AlignRecord> =
        std::collections::HashMap::new();
    for line in align_paf.lines() {
        let rec = genasm_pipeline::AlignRecord::parse_paf(line).unwrap();
        best.entry(rec.qname.clone()).or_insert(rec); // rows are best-first
    }
    for (name, rec) in &best {
        let truth_rev = name.ends_with("_rev");
        assert_eq!(
            rec.reverse, truth_rev,
            "strand column disagrees with simulated truth for {name}"
        );
    }

    let e = run_err(&[
        "align",
        "--ref",
        &ref_path,
        "--reads",
        &reads_path,
        "--format",
        "sam",
    ]);
    assert_eq!(e.code, 2);
    assert!(
        e.message.contains("'tsv'") && e.message.contains("'paf'"),
        "{}",
        e.message
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Simulate a 3-contig workload (unequal contig sizes) into `dir`.
fn simulate_multi_contig_workload(
    dir: &std::path::Path,
    reads: usize,
    read_len: usize,
) -> (String, String) {
    let ref_path = dir.join("ref.fa").to_str().unwrap().to_string();
    let reads_path = dir.join("reads.fq").to_str().unwrap().to_string();
    let out = run_ok(&[
        "simulate",
        "--genome-len",
        "150000",
        "--contigs",
        "3",
        "--reads",
        &reads.to_string(),
        "--read-len",
        &read_len.to_string(),
        "--error",
        "0.08",
        "--seed",
        "13",
        "--ref",
        &ref_path,
        "--out",
        &reads_path,
    ]);
    assert!(out.contains("3 contigs"), "{out}");
    (ref_path, reads_path)
}

/// The end-to-end multi-contig acceptance test: a 3-contig FASTA
/// aligns through `align` and `pipeline` with byte-identical output,
/// contig names and contig-local coordinates in TSV, and the *contig*
/// length (not the whole reference) as PAF column 7 — with unequal
/// contig sizes so a whole-reference length could never masquerade as
/// a contig length.
#[test]
fn multi_contig_reference_aligns_end_to_end() {
    let dir = tmpdir("multi-contig");
    let (ref_path, reads_path) = simulate_multi_contig_workload(&dir, 6, 900);

    // Contig identities straight from the written FASTA.
    let reference = {
        let f = std::fs::File::open(&ref_path).unwrap();
        readsim::read_multi_fastx(std::io::BufReader::new(f)).unwrap()
    };
    assert_eq!(reference.num_contigs(), 3);
    let lens: Vec<usize> = reference.contigs().iter().map(|c| c.len()).collect();
    assert!(
        lens[0] < lens[1] && lens[1] < lens[2],
        "contig sizes must be unequal: {lens:?}"
    );

    let golden = run_ok(&["align", "--ref", &ref_path, "--reads", &reads_path]);
    assert!(!golden.is_empty(), "multi-contig align produced no records");
    let p = run_ok(&["pipeline", "--ref", &ref_path, "--reads", &reads_path]);
    assert_eq!(p, golden, "pipeline diverged from align");

    // TSV rows name real contigs and stay inside them; the read name
    // encodes the source contig, and the best row must land on it.
    let mut best: std::collections::HashMap<String, genasm_pipeline::AlignRecord> =
        std::collections::HashMap::new();
    for line in golden.lines() {
        let rec = genasm_pipeline::AlignRecord::parse_tsv(line).unwrap();
        let contig = reference
            .contigs()
            .iter()
            .find(|c| *c.name == rec.tname)
            .unwrap_or_else(|| panic!("unknown contig {:?} in {line}", rec.tname));
        assert!(
            rec.tend <= contig.len(),
            "row leaks past its contig: {line}"
        );
        best.entry(rec.qname.clone()).or_insert(rec); // rows are best-first
    }
    assert_eq!(best.len(), 6, "every read must produce rows");
    for (name, rec) in &best {
        let truth_contig = name.split('_').nth(1).unwrap();
        assert_eq!(
            rec.tname, truth_contig,
            "best row of {name} on the wrong contig"
        );
    }

    // PAF column 7 is the contig length, per row (the bugfix this PR
    // ships): parse every row and cross-check against the FASTA.
    let paf = run_ok(&[
        "align",
        "--ref",
        &ref_path,
        "--reads",
        &reads_path,
        "--format",
        "paf",
    ]);
    assert_eq!(paf.lines().count(), golden.lines().count());
    for line in paf.lines() {
        let rec = genasm_pipeline::AlignRecord::parse_paf(line).unwrap();
        let contig = reference
            .contigs()
            .iter()
            .find(|c| *c.name == rec.tname)
            .unwrap();
        assert_eq!(
            rec.tsize,
            contig.len(),
            "PAF column 7 must be the contig length: {line}"
        );
        assert_ne!(rec.tsize, reference.total_len());
    }

    // `map` reports contig names and contig-local chain coordinates.
    let map_out = run_ok(&["map", "--ref", &ref_path, "--reads", &reads_path]);
    for row in map_out.lines() {
        let cols: Vec<&str> = row.split('\t').collect();
        assert_eq!(cols.len(), 11, "bad map row: {row}");
        let contig = reference
            .contigs()
            .iter()
            .find(|c| &*c.name == cols[5])
            .unwrap_or_else(|| panic!("map row names unknown contig: {row}"));
        assert_eq!(cols[6], contig.len().to_string(), "map tlen column");
        let tend: usize = cols[8].parse().unwrap();
        assert!(tend <= contig.len(), "map chain leaks past contig: {row}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn multi_contig_serve_and_submit_match_align() {
    let dir = tmpdir("multi-contig-serve");
    let (ref_path, reads_path) = simulate_multi_contig_workload(&dir, 4, 700);
    let sock = dir.join("genasm-mc.sock");
    let endpoint = format!("unix:{}", sock.display());

    let serve_args: Vec<String> = [
        "serve", "--ref", &ref_path, "--listen", &endpoint, "--shards", "4",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let server_thread = std::thread::spawn(move || {
        let mut out = Vec::new();
        let result = genasm_cli::run(&serve_args, &mut out);
        (result, String::from_utf8(out).unwrap())
    });
    await_server(&endpoint);

    let align_paf = run_ok(&[
        "align",
        "--ref",
        &ref_path,
        "--reads",
        &reads_path,
        "--format",
        "paf",
    ]);
    let submit_paf = run_ok(&[
        "submit",
        "--to",
        &endpoint,
        "--reads",
        &reads_path,
        "--format",
        "paf",
    ]);
    assert_eq!(
        submit_paf, align_paf,
        "multi-contig submit diverged from align"
    );
    let stats = run_ok(&["ctl", "stats", "--to", &endpoint]);
    assert!(stats.contains("contigs=3"), "{stats}");

    run_ok(&["ctl", "shutdown", "--to", &endpoint]);
    let (result, _) = server_thread.join().unwrap();
    result.unwrap_or_else(|e| panic!("serve failed: {e}"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn filter_still_requires_a_single_sequence_and_duplicates_are_rejected() {
    let dir = tmpdir("multi-ref-errors");
    let ref_path = dir.join("ref.fa");
    let recs = vec![
        readsim::FastxRecord::fasta(
            "chr1",
            align_core::Seq::from_ascii(b"ACGTACGTACGT").unwrap(),
        ),
        readsim::FastxRecord::fasta(
            "chr2",
            align_core::Seq::from_ascii(b"GGCCGGCCGGCC").unwrap(),
        ),
    ];
    let f = std::fs::File::create(&ref_path).unwrap();
    readsim::write_fasta(std::io::BufWriter::new(f), &recs).unwrap();

    // `filter` searches one sequence; multi-record input is still an
    // error naming the extras.
    let e = run_err(&[
        "filter",
        "--pattern",
        "ACGT",
        "--text",
        ref_path.to_str().unwrap(),
    ]);
    assert_eq!(e.code, 1);
    assert!(e.message.contains("chr2"), "{}", e.message);

    // Duplicate contig names poison the whole reference.
    let dup_path = dir.join("dup.fa");
    std::fs::write(&dup_path, ">chr1\nACGTACGT\n>chr1\nGGCCGGCC\n").unwrap();
    let reads_path = dir.join("reads.fq");
    std::fs::write(&reads_path, "@r1\nACGTACGT\n+\nIIIIIIII\n").unwrap();
    for cmd in ["align", "pipeline", "map"] {
        let e = run_err(&[
            cmd,
            "--ref",
            dup_path.to_str().unwrap(),
            "--reads",
            reads_path.to_str().unwrap(),
        ]);
        assert_eq!(e.code, 1, "{cmd} must reject duplicate contig names");
        assert!(
            e.message.contains("duplicate contig name"),
            "{cmd}: {}",
            e.message
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Poll `ctl ping` until the server at `endpoint` answers (it starts
/// on another thread).
fn await_server(endpoint: &str) {
    for _ in 0..200 {
        let args = vec![
            "ctl".to_string(),
            "ping".to_string(),
            "--to".to_string(),
            endpoint.to_string(),
        ];
        let mut out = Vec::new();
        if genasm_cli::run(&args, &mut out).is_ok() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    panic!("server at {endpoint} never became ready");
}

#[test]
fn serve_and_submit_round_trip_matches_align() {
    let dir = tmpdir("serve");
    let (ref_path, reads_path) = simulate_workload(&dir, 5, 800);
    let sock = dir.join("genasm.sock");
    let endpoint = format!("unix:{}", sock.display());

    // The server runs until `ctl shutdown`; host it on a thread.
    let serve_args: Vec<String> = [
        "serve",
        "--ref",
        &ref_path,
        "--listen",
        &endpoint,
        "--max-sessions",
        "8",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let server_thread = std::thread::spawn(move || {
        let mut out = Vec::new();
        let result = genasm_cli::run(&serve_args, &mut out);
        (result, String::from_utf8(out).unwrap())
    });
    await_server(&endpoint);

    // TSV session == one-shot align, byte for byte.
    let align_tsv = run_ok(&["align", "--ref", &ref_path, "--reads", &reads_path]);
    let submit_tsv = run_ok(&["submit", "--to", &endpoint, "--reads", &reads_path]);
    assert_eq!(submit_tsv, align_tsv, "submit diverged from align (tsv)");
    assert!(!submit_tsv.is_empty());

    // PAF session == one-shot align --format paf, and per-session
    // backend selection works over the wire.
    let align_paf = run_ok(&[
        "align",
        "--ref",
        &ref_path,
        "--reads",
        &reads_path,
        "--aligner",
        "edlib",
        "--format",
        "paf",
    ]);
    let submit_paf = run_ok(&[
        "submit",
        "--to",
        &endpoint,
        "--reads",
        &reads_path,
        "--backend",
        "edlib",
        "--format",
        "paf",
    ]);
    assert_eq!(
        submit_paf, align_paf,
        "submit diverged from align (paf/edlib)"
    );

    // stats answers while the server is up.
    let stats = run_ok(&["ctl", "stats", "--to", &endpoint]);
    assert!(stats.contains("# stats"), "{stats}");

    // Shut down; the serve thread exits cleanly.
    run_ok(&["ctl", "shutdown", "--to", &endpoint]);
    let (result, serve_out) = server_thread.join().unwrap();
    result.unwrap_or_else(|e| panic!("serve failed: {e}"));
    assert!(serve_out.contains("listening on"), "{serve_out}");

    // The endpoint is gone: submitting again fails with a runtime error.
    let e = run_err(&["submit", "--to", &endpoint, "--reads", &reads_path]);
    assert_eq!(e.code, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn submit_fails_nonzero_when_server_dies_before_done() {
    // A fake server that speaks just enough protocol to stream one
    // record and then vanish without the terminal `# done` line.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        use std::io::{BufRead, BufReader, Read, Write};
        let (mut s, _) = listener.accept().unwrap();
        let mut r = BufReader::new(s.try_clone().unwrap());
        writeln!(s, "# genasm-server v1 ref=x backend=cpu format=tsv").unwrap();
        let mut line = String::new();
        loop {
            line.clear();
            if r.read_line(&mut line).unwrap() == 0 {
                return;
            }
            if line.trim_end() == "BEGIN" {
                break;
            }
        }
        writeln!(s, "# ok begin backend=cpu format=tsv").unwrap();
        // Consume the payload so the client's upload cannot fail, emit
        // one record, then die without `# done`.
        let mut sink = Vec::new();
        r.read_to_end(&mut sink).unwrap();
        writeln!(s, "r1\t8\tx\t0\t8\t0\t8M\t1.0000").unwrap();
        s.flush().unwrap();
    });

    let dir = tmpdir("truncated-stream");
    let reads_path = dir.join("r.fq");
    std::fs::write(&reads_path, "@r1\nACGTACGT\n+\nIIIIIIII\n").unwrap();
    let e = run_err(&[
        "submit",
        "--to",
        &addr.to_string(),
        "--reads",
        reads_path.to_str().unwrap(),
    ]);
    assert_eq!(e.code, 1);
    assert!(
        e.message.contains("truncated"),
        "truncated stream must be reported: {}",
        e.message
    );
    fake.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ctl_usage_errors() {
    let missing = run_err(&["ctl"]);
    let unknown = run_err(&["ctl", "reboot", "--to", "127.0.0.1:1"]);
    assert!(unknown.message.contains("reboot"), "{}", unknown.message);
    for e in [missing, unknown] {
        assert_eq!(e.code, 2);
        for action in [
            "ping",
            "stats",
            "stats-json",
            "stats-prom",
            "top",
            "shutdown",
        ] {
            assert!(e.message.contains(action), "{action}: {}", e.message);
        }
    }
    let e = run_err(&["serve", "--ref", "/nope", "--listen", "nonsense"]);
    assert_eq!(e.code, 2);
    assert!(e.message.contains("endpoint"), "{}", e.message);
    let e = run_err(&[
        "submit",
        "--to",
        "unix:/nonexistent.sock",
        "--reads",
        "/nope",
    ]);
    assert_eq!(e.code, 1);
}

#[test]
fn filter_finds_planted_pattern() {
    let dir = tmpdir("filter");
    let ref_path = dir.join("ref.fa");
    // Build a small reference with a known pattern at position 100.
    let mut seq_bytes = vec![b'A'; 300];
    let pattern = b"GATTACAGGATCC";
    seq_bytes[100..100 + pattern.len()].copy_from_slice(pattern);
    let rec = readsim::FastxRecord::fasta("ref", align_core::Seq::from_ascii(&seq_bytes).unwrap());
    let f = std::fs::File::create(&ref_path).unwrap();
    readsim::write_fasta(std::io::BufWriter::new(f), &[rec]).unwrap();

    let out = run_ok(&[
        "filter",
        "--pattern",
        "GATTACAGGATCC",
        "--text",
        ref_path.to_str().unwrap(),
        "-k",
        "0",
    ]);
    let rows: Vec<&str> = out.lines().collect();
    assert_eq!(rows.len(), 1, "exactly one exact occurrence:\n{out}");
    let cols: Vec<&str> = rows[0].split('\t').collect();
    let end: usize = cols[0].parse().unwrap();
    assert_eq!(end, 100 + pattern.len() - 1);
    assert_eq!(cols[1], "0");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_pattern_rejected() {
    let e = run_err(&["filter", "--pattern", "ACGN", "--text", "/nonexistent"]);
    assert_eq!(e.code, 2);
}

#[test]
fn trace_flag_writes_chrome_trace_and_never_changes_records() {
    let dir = tmpdir("trace");
    let (ref_path, reads_path) = simulate_workload(&dir, 5, 800);
    let trace_path = dir.join("pipeline.trace.json");
    let trace = trace_path.to_str().unwrap();

    let plain = run_ok(&["pipeline", "--ref", &ref_path, "--reads", &reads_path]);
    // `--metrics json` goes to stderr, so stdout must stay identical.
    let traced = run_ok(&[
        "pipeline",
        "--ref",
        &ref_path,
        "--reads",
        &reads_path,
        "--trace",
        trace,
        "--metrics",
        "json",
    ]);
    assert_eq!(traced, plain, "tracing changed the record stream");

    // The trace is a loadable Chrome trace-event array with the
    // expected span kinds and thread-name metadata.
    let text = std::fs::read_to_string(&trace_path).unwrap();
    assert!(text.trim_start().starts_with('['), "{text}");
    assert!(text.trim_end().ends_with(']'), "not finalized: {text}");
    assert!(text.contains("\"ph\":\"M\""), "no thread names");
    assert!(text.contains("\"name\":\"read\""), "no read spans");
    assert!(text.contains("\"name\":\"execute\""), "no execute spans");

    // An unwritable trace path fails up front with a runtime error.
    let e = run_err(&[
        "pipeline",
        "--ref",
        &ref_path,
        "--reads",
        &reads_path,
        "--trace",
        dir.join("no-such-dir/t.json").to_str().unwrap(),
    ]);
    assert_eq!(e.code, 1);
    assert!(e.message.contains("trace"), "{e}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ctl_stats_json_and_prom_print_bare_payloads() {
    let dir = tmpdir("ctl-stats");
    let (ref_path, reads_path) = simulate_workload(&dir, 4, 700);
    let sock = dir.join("genasm.sock");
    let endpoint = format!("unix:{}", sock.display());

    let serve_args: Vec<String> = ["serve", "--ref", &ref_path, "--listen", &endpoint]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let server_thread = std::thread::spawn(move || {
        let mut out = Vec::new();
        genasm_cli::run(&serve_args, &mut out)
    });
    await_server(&endpoint);
    let _ = run_ok(&["submit", "--to", &endpoint, "--reads", &reads_path]);

    // stats-json: stdout is the bare JSON object, no `# ` prefixes.
    let json = run_ok(&["ctl", "stats-json", "--to", &endpoint]);
    assert!(
        json.starts_with("{\"schema\":\"genasm-stats/v1\""),
        "{json}"
    );
    assert!(!json.contains("# stats-json"), "prefix leaked: {json}");
    assert!(json.contains("\"reads_in\":4"), "{json}");

    // stats-prom: bare exposition lines.
    let prom = run_ok(&["ctl", "stats-prom", "--to", &endpoint]);
    assert!(prom.contains("genasm_reads_in_total 4"), "{prom}");
    assert!(!prom.contains("# prom"), "prefix leaked: {prom}");

    // The line format gained the band counters.
    let stats = run_ok(&["ctl", "stats", "--to", &endpoint]);
    assert!(stats.contains("windows="), "{stats}");
    assert!(stats.contains("band_skipped="), "{stats}");

    run_ok(&["ctl", "shutdown", "--to", &endpoint]);
    server_thread.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explain_flag_writes_jsonl_and_never_changes_records() {
    let dir = tmpdir("explain");
    let (ref_path, reads_path) = simulate_workload(&dir, 6, 700);

    // Pull the read name / disposition fields back out of an explain
    // line (names here are plain, so no unescaping is needed).
    fn field<'a>(line: &'a str, key: &str) -> &'a str {
        let pat = format!("\"{key}\":\"");
        let start = line
            .find(&pat)
            .unwrap_or_else(|| panic!("no {key} in {line}"))
            + pat.len();
        let end = line[start..].find('"').unwrap();
        &line[start..start + end]
    }

    let plain_align = run_ok(&["align", "--ref", &ref_path, "--reads", &reads_path]);
    let align_explain = dir.join("align.explain.jsonl");
    let explained_align = run_ok(&[
        "align",
        "--ref",
        &ref_path,
        "--reads",
        &reads_path,
        "--explain",
        align_explain.to_str().unwrap(),
    ]);
    assert_eq!(
        explained_align, plain_align,
        "explain changed align records"
    );
    let align_text = std::fs::read_to_string(&align_explain).unwrap();
    assert_eq!(align_text.lines().count(), 6, "{align_text}");

    let plain_pipe = run_ok(&["pipeline", "--ref", &ref_path, "--reads", &reads_path]);
    assert_eq!(plain_pipe, plain_align);
    let pipe_explain = dir.join("pipeline.explain.jsonl");
    let explained_pipe = run_ok(&[
        "pipeline",
        "--ref",
        &ref_path,
        "--reads",
        &reads_path,
        "--explain",
        pipe_explain.to_str().unwrap(),
    ]);
    assert_eq!(
        explained_pipe, plain_pipe,
        "explain changed pipeline records"
    );
    let pipe_text = std::fs::read_to_string(&pipe_explain).unwrap();
    assert_eq!(pipe_text.lines().count(), 6, "{pipe_text}");

    // Same reads, same decisions: the one-shot and streaming paths
    // must agree on every read's disposition (timings differ, so the
    // lines themselves don't compare byte-for-byte).
    let mut align_disp: Vec<(String, String)> = align_text
        .lines()
        .map(|l| {
            (
                field(l, "read").to_string(),
                field(l, "disposition").to_string(),
            )
        })
        .collect();
    let mut pipe_disp: Vec<(String, String)> = pipe_text
        .lines()
        .map(|l| {
            (
                field(l, "read").to_string(),
                field(l, "disposition").to_string(),
            )
        })
        .collect();
    align_disp.sort();
    pipe_disp.sort();
    assert_eq!(
        align_disp, pipe_disp,
        "align/pipeline dispositions diverged"
    );
    for line in align_text.lines().chain(pipe_text.lines()) {
        assert!(
            line.starts_with("{\"schema\":\"genasm-explain/v2\""),
            "{line}"
        );
        assert!(line.contains("\"tasks\":["), "{line}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_submit_explain_and_ctl_top_stream() {
    let dir = tmpdir("serve-top");
    let (ref_path, reads_path) = simulate_workload(&dir, 4, 700);
    let sock = dir.join("genasm-top.sock");
    let endpoint = format!("unix:{}", sock.display());

    let serve_args: Vec<String> = ["serve", "--ref", &ref_path, "--listen", &endpoint]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let server_thread = std::thread::spawn(move || {
        let mut out = Vec::new();
        let result = genasm_cli::run(&serve_args, &mut out);
        (result, String::from_utf8(out).unwrap())
    });
    await_server(&endpoint);

    // `submit --explain FILE` lands one provenance line per read and
    // keeps stdout byte-identical to align.
    let align = run_ok(&["align", "--ref", &ref_path, "--reads", &reads_path]);
    let explain_path = dir.join("submit.explain.jsonl");
    let submit_out = run_ok(&[
        "submit",
        "--to",
        &endpoint,
        "--reads",
        &reads_path,
        "--explain",
        explain_path.to_str().unwrap(),
    ]);
    assert_eq!(submit_out, align, "explain submit diverged from align");
    let text = std::fs::read_to_string(&explain_path).unwrap();
    assert_eq!(text.lines().count(), 4, "{text}");
    for line in text.lines() {
        assert!(
            line.starts_with("{\"schema\":\"genasm-explain/v2\""),
            "{line}"
        );
    }

    // `ctl top` prints bare stat-frame JSON, one object per line.
    let top = run_ok(&[
        "ctl",
        "top",
        "--to",
        &endpoint,
        "--interval-ms",
        "20",
        "--frames",
        "2",
    ]);
    let lines: Vec<&str> = top.lines().collect();
    assert_eq!(lines.len(), 2, "{top}");
    for line in &lines {
        assert!(
            line.starts_with("{\"schema\":\"genasm-stat-frame/v1\""),
            "{line}"
        );
        assert!(line.contains("\"funnel\":{\"reads_in\":4"), "{line}");
        assert!(line.contains("\"rates\":{"), "{line}");
    }
    let e = run_err(&["ctl", "top", "--to", &endpoint, "--interval-ms", "0"]);
    assert_eq!(e.code, 2);

    run_ok(&["ctl", "shutdown", "--to", &endpoint]);
    let (result, _) = server_thread.join().unwrap();
    result.unwrap_or_else(|e| panic!("serve failed: {e}"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A mistyped flag must not quietly run the defaults: every
/// subcommand refuses one it does not read, before doing anything.
#[test]
fn every_subcommand_rejects_an_unknown_flag() {
    for (cmd, flags) in genasm_cli::FLAGS {
        let mut args: Vec<&str> = cmd.split(' ').collect();
        if cmd == "ctl" {
            args.push("ping");
        }
        args.extend(["--bogus", "7"]);
        let e = run_err(&args);
        assert_eq!(e.code, 2, "{cmd}: {}", e.message);
        assert!(e.message.contains("--bogus"), "{cmd}: {}", e.message);
        // ...and says what it would have taken.
        let first = flags.split(' ').next().unwrap();
        assert!(e.message.contains(&format!("--{first}")), "{}", e.message);
    }
}

/// The help cannot drift from the parser: every flag a subcommand
/// reads is in that subcommand's entry of `USAGE`.
#[test]
fn usage_lists_every_flag_of_every_subcommand() {
    // One entry per "  genasm <subcommand> …" line, with its
    // continuation lines.
    let entries: Vec<&str> = genasm_cli::USAGE.split("\n  genasm ").skip(1).collect();
    for (cmd, flags) in genasm_cli::FLAGS {
        let words = cmd.split(' ').count();
        let usage: String = entries
            .iter()
            .filter(|e| e.split_whitespace().take(words).eq(cmd.split(' ')))
            .flat_map(|e| [e, "\n"])
            .collect();
        assert!(!usage.is_empty(), "no usage entry for `genasm {cmd}`");
        for flag in flags.split(' ') {
            assert!(
                usage.contains(&format!("-{flag} ")),
                "`genasm {cmd}` reads --{flag}, which its usage does not list:\n{usage}"
            );
        }
    }
}
