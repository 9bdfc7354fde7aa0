//! The `regen` binary's command line, its table of `results/` files, and
//! every row rendered at a small size.

use std::process::{Command, Output, Stdio};

use pimsim_bench::regen::ROWS;
use pimsim_bench::{figures, BenchArgs};

fn regen(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_regen"))
        .args(args.split_whitespace())
        .output()
        .expect("run regen")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn one_row_per_results_file_and_every_row_parses() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .expect("results/")
        .map(|e| e.expect("entry").file_name().into_string().expect("UTF-8"))
        .filter_map(|name| Some(name.strip_suffix(".txt")?.to_owned()))
        .collect();
    files.sort();
    let mut rows: Vec<String> = ROWS.iter().map(|r| r.file.to_owned()).collect();
    rows.sort();
    assert_eq!(rows, files);
    for row in &ROWS {
        row.bench_args();
    }
}

/// As in `regen table1 | head -1`: the closed pipe ends the output
/// normally, with exit code 0 and nothing on stderr.
#[test]
fn table1_into_a_closed_pipe_exits_cleanly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_regen"))
        .arg("table1")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run regen");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(out.stderr.is_empty(), "stderr: {}", stderr(&out));
}

#[test]
fn usage_errors_exit_2_with_a_message() {
    for (args, msg) in [
        ("fig99", "unknown figure: fig99"),
        ("fig5_lp5x", "unknown figure: fig5_lp5x"),
        ("fig4 --frobnicate", "unknown flag: --frobnicate"),
        ("fig4 --scale nan", "--scale must be finite and positive"),
        ("fig4 --scale", "--scale needs a positive number"),
        ("fig4 --budget -1", "--budget needs an integer"),
        ("fig5 --dram ddr9", "--dram: "),
        ("--quick", "--quick needs a figure NAME first"),
    ] {
        let out = regen(args);
        let text = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args}: {text}");
        assert!(text.starts_with(&format!("error: {msg}")), "{args}: {text}");
        assert!(text.contains("usage: regen"), "{args}: {text}");
    }
}

#[test]
fn a_budget_overrun_exits_1_on_every_simulating_figure() {
    let mut figures: Vec<&str> = ROWS.iter().map(|r| r.figure).collect();
    figures.dedup();
    for figure in figures
        .into_iter()
        .filter(|f| !["table1", "complexity"].contains(f))
    {
        let out = regen(&format!("{figure} --budget 0 --quick --scale 0.01"));
        let text = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{figure}: {text}");
        assert!(
            text.contains("error: simulation exceeded 0 GPU cycles"),
            "{figure}: {text}"
        );
    }
}

fn render(figure: figures::Render, budget: u64) -> String {
    let flags = format!("--quick --scale 0.02 --budget {budget}");
    let flags: Vec<&str> = flags.split_whitespace().collect();
    let mut out = Vec::new();
    figure(&BenchArgs::parse(&flags).expect("flags"), &mut out).expect("renders");
    String::from_utf8(out).expect("UTF-8")
}

/// A budget that lets every kernel finish alone (on four times the
/// budget) but no collaborative pair together: Figure 11 scores the
/// sequential time over the budget, Figure 14a prints `-` and the FFT
/// scenario scores 0.
#[test]
fn collaborative_overruns_keep_each_figures_rendering() {
    let budget = 200;
    let fig11 = render(figures::fig11, budget);
    let alone: Vec<u64> = fig11
        .split(" cycles")
        .filter_map(|s| s.rsplit(' ').next()?.parse().ok())
        .collect();
    assert!(alone[0] > budget, "the pair must overrun: {fig11}");
    let overrun = format!("  {:.3}", (alone[0] + alone[1]) as f64 / budget as f64);
    // Nine policies under two VCs.
    assert_eq!(fig11.matches(&overrun).count(), 18, "{fig11}");
    let fig14a = render(figures::fig14a, budget);
    assert_eq!(fig14a.matches("  -\n").count(), 4, "{fig14a}");
    // Butterflies alone take longer than the budget; ten policies.
    let fft = render(figures::collab_fft, 300);
    assert_eq!(fft.matches("  0.000  0.000\n").count(), 10, "{fft}");
}

/// Every row of the table at `--quick --scale 0.01`, on its own backend
/// and budget: each renders and opens with a figure header.
#[test]
#[cfg_attr(debug_assertions, ignore = "about 15 s in release; run with --release")]
fn every_row_renders_small() {
    for row in &ROWS {
        let mut args = row.bench_args();
        (args.quick, args.scale) = (true, 0.01);
        let mut out = Vec::new();
        (row.render)(&args, &mut out).unwrap_or_else(|e| panic!("{}: {e}", row.file));
        let text = String::from_utf8(out).expect("UTF-8");
        assert!(text.starts_with("\n=== "), "{}: {text}", row.file);
    }
}
