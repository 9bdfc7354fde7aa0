//! The table behind `regen`: one row per file under `results/`, naming
//! the figure that renders it and the flags it is rendered with.
//!
//! `regen NAME [FLAGS]` prints figure `NAME` at `FLAGS` (over
//! [`BenchArgs::default`]); `regen` alone rewrites every file in
//! `results/` from its row and reports each file's wall time on stderr.

use std::io::{self, Write};
use std::time::Instant;

use crate::figures::*;
use crate::BenchArgs;

/// One file under `results/`.
#[derive(Clone, Copy)]
pub struct Row {
    /// The file's name without `.txt`.
    pub file: &'static str,
    /// The figure it holds, as `regen` names it.
    pub figure: &'static str,
    /// Renders the figure.
    pub render: Render,
    /// The flags the file is rendered with.
    pub args: &'static str,
}

const fn row(file: &'static str, figure: &'static str, render: Render, args: &'static str) -> Row {
    Row {
        file,
        figure,
        render,
        args,
    }
}

/// Every file under `results/` and the command that makes it.
#[rustfmt::skip]
pub const ROWS: [Row; 20] = [
    row("table1",        "table1",        table1,        ""),
    row("complexity",    "complexity",    complexity,    ""),
    row("fig4",          "fig4",          fig4,          "--scale 0.3"),
    row("fig5",          "fig5",          fig5,          "--scale 0.3"),
    row("fig5_lp5x",     "fig5",          fig5,          "--scale 0.3 --dram lp5x:ranks=4"),
    row("fig6",          "fig6",          fig6,          "--quick --scale 0.3"),
    row("fig6_lp5x",     "fig6",          fig6,          "--quick --scale 0.3 --dram lp5x:ranks=4"),
    row("fig8",          "fig8",          fig8,          "--scale 0.25 --budget 2000000"),
    row("fig10",         "fig10",         fig10,         "--quick --scale 0.25"),
    row("fig11",         "fig11",         fig11,         "--scale 0.3"),
    row("fig13",         "fig13",         fig13,         "--scale 0.25"),
    row("fig14a",        "fig14a",        fig14a,        "--scale 0.25"),
    row("fig14b",        "fig14b",        fig14b,        "--quick --scale 0.25"),
    row("cap_sweep",     "cap_sweep",     cap_sweep,     "--quick --scale 0.25"),
    row("policy_params", "policy_params", policy_params, "--scale 0.25"),
    row("fidelity",      "fidelity",      fidelity,      "--scale 0.25"),
    row("mapping_study", "mapping_study", mapping_study, "--scale 0.3"),
    row("sms_study",     "sms_study",     sms_study,     "--scale 0.25"),
    row("page_policy",   "page_policy",   page_policy,   "--scale 0.25"),
    row("collab_fft",    "collab_fft",    collab_fft,    "--scale 0.3"),
];

impl Row {
    /// The row's own flags, parsed.
    ///
    /// # Panics
    ///
    /// Panics if the flags do not parse (the table's tests rule it out).
    pub fn bench_args(&self) -> BenchArgs {
        let flags: Vec<&str> = self.args.split_whitespace().collect();
        BenchArgs::parse(&flags).unwrap_or_else(|e| panic!("{}: {e}", self.file))
    }
}

/// The usage line, with every figure name.
pub fn usage() -> String {
    let mut names: Vec<&str> = ROWS.iter().map(|r| r.figure).collect();
    names.dedup();
    format!(
        "usage: regen [NAME [--scale F] [--budget N] [--quick] [--dram SPEC]]\n\
         \x20 NAME prints one figure: {}\n\
         \x20 with no NAME, rewrites every file in results/ from its row",
        names.join(" ")
    )
}

/// What a `regen` command line asks for.
pub enum Command {
    /// Print the usage.
    Help,
    /// Print one figure at the given flags.
    Render(Row, BenchArgs),
    /// Rewrite every file in `results/` from its row.
    All,
}

/// Parses `regen`'s arguments (without the program name).
///
/// # Errors
///
/// A message for an unknown figure name, an unknown flag, a bad value,
/// or flags without a figure.
pub fn parse(argv: &[String]) -> Result<Command, String> {
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Command::Help);
    }
    match argv.first().map(String::as_str) {
        None => Ok(Command::All),
        Some(flag) if flag.starts_with('-') => Err(format!("{flag} needs a figure NAME first")),
        Some(name) => {
            let row = ROWS
                .iter()
                .find(|r| r.figure == name)
                .ok_or_else(|| format!("unknown figure: {name}"))?;
            Ok(Command::Render(*row, BenchArgs::parse(&argv[1..])?))
        }
    }
}

/// Renders `row`'s figure at `args` to `out`. Returns the process exit
/// code: 0 on success or when the reader of `out` went away (`regen
/// table1 | head -1`), 1 on a budget overrun or a failed write.
pub fn render(row: &Row, args: &BenchArgs, out: &mut impl Write) -> i32 {
    let closed = |e: &io::Error| e.kind() == io::ErrorKind::BrokenPipe;
    match (row.render)(args, out).and_then(|()| Ok(out.flush()?)) {
        Err(e) if !e.downcast_ref().is_some_and(closed) => {
            eprintln!("error: {e}");
            1
        }
        _ => 0,
    }
}

/// Rewrites `dir/FILE.txt` for every row, each from its row's flags,
/// printing each file's wall time on stderr. Stops at the first figure
/// that fails, leaving its file as it was.
pub fn regen_all(dir: &std::path::Path) -> i32 {
    for row in &ROWS {
        let start = Instant::now();
        let mut text = Vec::new();
        let written = (row.render)(&row.bench_args(), &mut text)
            .and_then(|()| Ok(std::fs::write(dir.join(format!("{}.txt", row.file)), text)?));
        if let Err(e) = written {
            eprintln!("error: {}.txt: {e}", row.file);
            return 1;
        }
        eprintln!("{}.txt: {:.1} s", row.file, start.elapsed().as_secs_f64());
    }
    0
}
