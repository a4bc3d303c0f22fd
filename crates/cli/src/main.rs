//! `osd` — command-line NN-candidate search.

// Leaf binary/bench: panic-family and print lints relaxed (see workspace
// policy).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![allow(clippy::print_stderr)]

use osd_cli::args::{CliError, Flags};
use osd_cli::commands::{run, usage};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        eprint!("{}", usage());
        return;
    }
    let sub = args.remove(0);
    if let Err(e) = run(&sub, &Flags::new(args)) {
        eprintln!("error: {e}");
        // The usage helps with a malformed or missing flag, not with bad data.
        if !matches!(e, CliError::Data(_)) {
            eprint!("{}", usage());
        }
        std::process::exit(2);
    }
}
