//! CI validator for recorded traces.
//!
//! ```text
//! trace_check [--jsonl FILE]... [--chrome FILE]...
//! ```
//!
//! Parses each `--jsonl` file as a JSON Lines event stream (checking span
//! nesting) and each `--chrome` file against the Chrome `trace_event`
//! object format (checking `B`/`E` balance). Exits non-zero on the first
//! rejected file, so a CI step can gate on emitted traces staying
//! loadable.

use std::process::ExitCode;

use tcms_obs::sink;

fn usage() -> ExitCode {
    eprintln!("usage: trace_check [--jsonl FILE]... [--chrome FILE]...");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let mut checked = 0usize;
    let mut i = 0;
    while i < args.len() {
        let (flag, path) = match (args.get(i).map(String::as_str), args.get(i + 1)) {
            (Some(flag @ ("--jsonl" | "--chrome")), Some(path)) => (flag, path),
            _ => return usage(),
        };
        i += 2;
        let content = match std::fs::read_to_string(path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("trace_check: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let result = if flag == "--jsonl" {
            sink::validate_jsonl(&content)
        } else {
            sink::validate_chrome_trace(&content)
        };
        match result {
            Ok(n) => {
                println!("trace_check: {path}: ok ({n} records)");
                checked += 1;
            }
            Err(e) => {
                eprintln!("trace_check: {path}: INVALID: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("trace_check: {checked} file(s) valid");
    ExitCode::SUCCESS
}
