//! `pimsim` — command-line driver for the pim-coscheduling simulator.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match pimsim_cli::parse_args(&args) {
        Ok(cmd) => {
            let code = pimsim_cli::run(cmd, &mut std::io::stdout().lock());
            std::process::exit(code)
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", pimsim_cli::USAGE);
            std::process::exit(2);
        }
    }
}
