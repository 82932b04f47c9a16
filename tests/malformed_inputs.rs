//! Every file in `tests/corpus/` is malformed on purpose — syntax errors,
//! unknown identifiers, structural violations (cycles, self edges,
//! duplicate names) and numeric abuse (zero delays, overflowing time
//! ranges). The CLI must reject each with a *typed* error and the stable
//! nonzero exit code for malformed input, never a panic and never silent
//! truncation.

use tcms::cli::{run, CliError, Command};
use tcms::serve::ScheduleOptions;

fn corpus_files() -> Vec<std::path::PathBuf> {
    let dir = format!("{}/tests/corpus", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_has_at_least_fifteen_cases() {
    assert!(
        corpus_files().len() >= 15,
        "corpus shrank to {} cases",
        corpus_files().len()
    );
}

#[test]
fn every_corpus_file_yields_a_typed_malformed_error() {
    for path in corpus_files() {
        let input = path.to_string_lossy().into_owned();
        let err = run(&Command::Summary {
            input: input.clone(),
        })
        .unwrap_err();
        assert!(
            matches!(err, CliError::Malformed(_)),
            "{input}: expected Malformed, got {err:?}"
        );
        assert_eq!(err.exit_code(), 4, "{input}");
        assert!(!err.to_string().is_empty(), "{input}");
        // The same file must fail identically through the scheduling path.
        let sched_err = run(&Command::Schedule {
            input: input.clone(),
            opts: ScheduleOptions {
                all_global: Some(5),
                ..ScheduleOptions::default()
            },
            save: None,
            trace: None,
            metrics: false,
            timeline: None,
            threads: None,
            cache_dir: None,
        })
        .unwrap_err();
        assert!(
            matches!(sched_err, CliError::Malformed(_)),
            "{input}: schedule path gave {sched_err:?}"
        );
    }
}

#[test]
fn binary_exits_nonzero_with_diagnostic_on_malformed_input() {
    // End to end through the real process: exit status 4 and a diagnostic
    // on stderr, nothing on stdout.
    let sample = format!(
        "{}/tests/corpus/unknown_keyword.dfg",
        env!("CARGO_MANIFEST_DIR")
    );
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tcms"))
        .args(["summary", &sample])
        .output()
        .expect("tcms binary runs");
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("malformed input"), "{stderr}");
}

#[test]
fn oversized_behavioral_time_range_is_rejected_not_truncated() {
    // `time=4294967297` is 2^32 + 1: a truncating cast would silently
    // build a block with time range 1.
    let path = format!(
        "{}/tests/corpus/huge_time_range.hls",
        env!("CARGO_MANIFEST_DIR")
    );
    let err = run(&Command::Summary { input: path }).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("exceeds the u32 limit"), "{msg}");
}
