//! `dynapar-bench`: regenerates the paper's tables and figures. Every
//! experiment is a subcommand; run without arguments for the list.
//!
//! ```sh
//! cargo run --release -p dynapar-bench -- --scale tiny fig15 fig16
//! ```

use std::process::ExitCode;

use dynapar_bench::{usage, Invocation};

fn main() -> ExitCode {
    let args = std::env::args().skip(1);
    let Err(e) = Invocation::parse(args).and_then(|inv| inv.run(&mut std::io::stdout())) else {
        return ExitCode::SUCCESS;
    };
    eprintln!("dynapar-bench: error: {e}");
    if !e.is_usage() {
        return ExitCode::FAILURE;
    }
    eprint!("{}", usage());
    ExitCode::from(2)
}
