//! Untraced run: prints the end-to-end metrics of one workload.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s>`; add `--digests`
//! to print one pass's figure digests in the `digests.txt` format instead.

use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let start = Instant::now();
    let result = perfbench::Args::parse(std::env::args().skip(1))
        .and_then(|args| perfbench::end_to_end(&args, start));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
