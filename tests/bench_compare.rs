//! `scripts/bench_compare.sh` raced on stub pimbench executables: shell
//! scripts that print one fixed result line per `--seed`, so every
//! median, win count, IQR and verdict of the summary is known in advance.

#![cfg(unix)]

use std::fmt::Write as _;
use std::os::unix::fs::PermissionsExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Pairs per comparison: the protocol's minimum.
const PAIRS: u64 = 10;

/// An empty directory for one test's stubs.
fn stub_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("bench_compare")
        .join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create stub dir");
    dir
}

/// Writes an executable stub pimbench that answers `--seed N` with a
/// result line whose `(run_s, failed)` is `sample(N)`, after a metric
/// line as pimbench prints them. `setup_s` and `peak_rss_mb` are the same
/// on every seed, and the stub exits 1 when a sample failed, as pimbench
/// does. Each run appends `name N` to `dir/order`.
fn stub(dir: &Path, name: &str, sample: impl Fn(u64) -> (f64, u64)) -> PathBuf {
    let mut body = format!(
        "#!/bin/sh\nwhile [ $# -gt 0 ]; do\n  [ \"$1\" = --seed ] && seed=$2\n  shift\ndone\n\
         echo \"{name} $seed\" >>'{}/order'\necho \"mem_dense samples 12 count\"\ncase $seed in\n",
        dir.display()
    );
    for seed in 1..=PAIRS {
        let (run_s, failed) = sample(seed);
        writeln!(
            body,
            "  {seed}) echo '{{\"correct\": {}, \"attempted\": 12, \"failed\": {failed}, \"metrics\": \
             {{\"run_s\": {{\"value\": {run_s}, \"unit\": \"s\"}}, \"setup_s\": {{\"value\": 0.0008, \
             \"unit\": \"s\"}}, \"peak_rss_mb\": {{\"value\": 9.0, \"unit\": \"MiB\"}}}}}}'; exit {} ;;",
            failed == 0,
            u8::from(failed > 0)
        )
        .unwrap();
    }
    body.push_str("esac\nexit 2\n");
    let path = dir.join(name);
    std::fs::write(&path, body).expect("write stub");
    std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).expect("chmod stub");
    path
}

const SCRIPT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/scripts/bench_compare.sh");

fn script(args: &[&str]) -> Output {
    Command::new(SCRIPT)
        .args(args)
        .output()
        .expect("run scripts/bench_compare.sh")
}

/// One summary line of the script's output.
#[derive(Debug)]
struct Row {
    parent: f64,
    change: f64,
    wins: String,
    parent_iqr: f64,
    failed: String,
    verdict: String,
}

/// Races `parent` against `change` on `mem_dense` and returns the summary
/// line of each end-to-end metric, in BENCHMARK.json's order.
fn compare(parent: &Path, change: &Path) -> Vec<(String, Row)> {
    let out = script(&[
        parent.to_str().unwrap(),
        change.to_str().unwrap(),
        "mem_dense",
        &PAIRS.to_string(),
        "1",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "script failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Every run is reported: one line per side and pair.
    assert_eq!(
        stdout.lines().filter(|l| l.contains(" seed ")).count(),
        2 * PAIRS as usize,
        "{stdout}"
    );
    stdout
        .lines()
        .skip_while(|l| !l.starts_with("workload "))
        .skip(1)
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert!(f.len() >= 9, "short summary line: {l}");
            assert_eq!(f[0], "mem_dense", "{l}");
            let row = Row {
                parent: f[2].parse().unwrap(),
                change: f[3].parse().unwrap(),
                wins: f[4].to_owned(),
                parent_iqr: f[5].parse().unwrap(),
                failed: f[7].to_owned(),
                verdict: f[8..].join(" "),
            };
            (f[1].to_owned(), row)
        })
        .collect()
}

/// The summary prints four significant digits.
fn assert_close(got: f64, want: f64) {
    assert!((got - want).abs() <= 1e-3 * want.abs(), "{got} != {want}");
}

/// The rows of `setup_s` and `peak_rss_mb`, which every stub here keeps
/// equal on both sides.
fn assert_untouched(rows: &[(String, Row)]) {
    let names: Vec<&str> = rows.iter().map(|(m, _)| m.as_str()).collect();
    assert_eq!(names, ["run_s", "setup_s", "peak_rss_mb"]);
    for (metric, row) in &rows[1..] {
        assert_eq!(row.wins, "0/10", "{metric}: {row:?}");
        assert_eq!(row.verdict, "no change", "{metric}: {row:?}");
    }
}

/// The parent's `run_s` on seed `s`: 0.101 s to 0.110 s over the pairs,
/// median 0.1055 s, exclusive quartiles 0.10275 s and 0.10825 s.
fn ramp(s: u64) -> f64 {
    0.100 + 0.001 * s as f64
}

#[test]
fn gain_when_the_change_wins_every_pair_by_more_than_the_iqr() {
    let dir = stub_dir("gain");
    let parent = stub(&dir, "parent", |s| (ramp(s), 0));
    let change = stub(&dir, "change", |s| (ramp(s) - 0.02, 0));
    let rows = compare(&parent, &change);
    let run = &rows[0].1;
    assert_close(run.parent, 0.1055);
    assert_close(run.change, 0.0855);
    assert_close(run.parent_iqr, 0.0055);
    assert_eq!(run.wins, "10/10");
    assert_eq!(run.failed, "0/0");
    assert_eq!(run.verdict, "gain");
    assert_untouched(&rows);
    // Both sides run each pair's seed, and the side that goes first
    // alternates.
    let order: String = (1..=PAIRS)
        .map(|s| match s % 2 {
            1 => format!("parent {s}\nchange {s}\n"),
            _ => format!("change {s}\nparent {s}\n"),
        })
        .collect();
    assert_eq!(std::fs::read_to_string(dir.join("order")).unwrap(), order);
    // Winning every pair by less than the parent's IQR is no gain.
    let barely = stub(&dir, "barely", |s| (ramp(s) - 0.001, 0));
    let run = &compare(&parent, &barely)[0].1;
    assert_eq!(run.wins, "10/10");
    assert_eq!(run.verdict, "no change");
}

#[test]
fn worse_past_the_bound_no_change_within_it() {
    let dir = stub_dir("worse");
    let parent = stub(&dir, "parent", |s| (ramp(s), 0));
    let slower = stub(&dir, "slower", |s| (1.3 * ramp(s), 0));
    let rows = compare(&parent, &slower);
    let run = &rows[0].1;
    assert_close(run.parent, 0.1055);
    assert_close(run.change, 0.13715);
    assert_eq!(run.wins, "0/10");
    assert_eq!(run.verdict, "worse");
    assert_untouched(&rows);
    // 20 % slower stays inside run_s's 25 % bound.
    let within = stub(&dir, "within", |s| (1.2 * ramp(s), 0));
    assert_eq!(compare(&parent, &within)[0].1.verdict, "no change");
}

#[test]
fn identical_stubs_read_no_change() {
    let dir = stub_dir("same");
    let parent = stub(&dir, "parent", |s| (ramp(s), 0));
    let rows = compare(&parent, &parent);
    let run = &rows[0].1;
    assert_close(run.parent, 0.1055);
    assert_close(run.change, 0.1055);
    assert_eq!(run.wins, "0/10");
    assert_eq!(run.verdict, "no change");
    assert_untouched(&rows);
}

#[test]
fn unresolved_when_the_parent_spreads_past_the_bound() {
    let dir = stub_dir("unresolved");
    // The parent alternates between 0.2 s and 0.1 s: spread 67 %.
    let parent = stub(&dir, "parent", |s| (0.1 * (1 + s % 2) as f64, 0));
    let change = stub(&dir, "change", |_| (0.14, 0));
    let rows = compare(&parent, &change);
    assert_eq!(rows[0].1.wins, "5/10");
    assert_eq!(rows[0].1.verdict, "unresolved");
    assert_untouched(&rows);
}

#[test]
fn failed_samples_are_counted_per_side() {
    let dir = stub_dir("failed");
    let parent = stub(&dir, "parent", |s| (ramp(s), 0));
    let change = stub(&dir, "change", |s| {
        (ramp(s) - 0.02, u64::from(s == 3) + 2 * u64::from(s == 8))
    });
    let rows = compare(&parent, &change);
    for (metric, row) in &rows {
        assert_eq!(row.failed, "0/3", "{metric}: {row:?}");
    }
    // Faster in every pair by more than the IQR, but a gain does not
    // count when the change fails more samples.
    assert_eq!(rows[0].1.wins, "10/10");
    assert_eq!(rows[0].1.verdict, "no change");
}

#[test]
fn usage_errors_exit_2() {
    let dir = stub_dir("usage");
    let parent = stub(&dir, "parent", |s| (ramp(s), 0));
    let missing = dir.join("missing");
    let (p, m) = (parent.to_str().unwrap(), missing.to_str().unwrap());
    for args in [
        vec![p],
        vec![p, m],
        vec![p, p, "no_such_workload"],
        vec![p, p, "mem_dense", "9"],
    ] {
        assert_eq!(script(&args).status.code(), Some(2), "{args:?}");
    }
}
