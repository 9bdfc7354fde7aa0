//! `regen` — regenerates the paper's tables and figures.
//!
//! ```sh
//! regen NAME [--scale F] [--budget N] [--quick] [--dram SPEC]  # one figure to stdout
//! regen                                                        # rewrite every results/ file
//! ```
//!
//! The table of `results/` files and their flags is
//! `pimsim_bench::regen::ROWS`. Usage errors exit 2, a budget overrun
//! exits 1, and a reader that closes stdout early ends the output with
//! exit 0.

use pimsim_bench::regen::{self, Command};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match regen::parse(&argv) {
        Ok(Command::Help) => {
            println!("{}", regen::usage());
            0
        }
        Ok(Command::Render(row, args)) => regen::render(&row, &args, &mut std::io::stdout().lock()),
        Ok(Command::All) => regen::regen_all(std::path::Path::new("results")),
        Err(e) => {
            eprintln!("error: {e}\n{}", regen::usage());
            2
        }
    };
    std::process::exit(code)
}
