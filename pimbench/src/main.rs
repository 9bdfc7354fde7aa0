//! `pimbench`: the end-to-end and per-layer benchmark of the simulator.
//!
//! ```text
//! cargo run --release --manifest-path pimbench/Cargo.toml -- \
//!     [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]]
//!     [--verify] [--quick] [--spans FILE] [--json FILE]
//! ```
//!
//! Each sample is one cold, closed-loop simulation (a fresh `Simulator`
//! with an empty L2), or one whole sweep for `policy_sweep`. After two
//! warm-up samples per workload, rounds run one sample of every selected
//! workload, rotating the order, until each workload has had `--seconds`
//! of measuring; a workload whose samples are long (the sweep) sits out
//! rounds until the others have caught up with its share of time.
//! Every metric prints as `workload metric value unit`; the last line is
//! one JSON object with `correct`, `attempted`, `failed` and the
//! end-to-end metrics, or the per-layer metrics under `--trace`. See
//! README.md for the metrics, the workloads and the A/B protocol.

mod layers;
mod micro;
mod sim;
mod workloads;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use layers::Counters;
use sim::{SimRecord, SimSpec};

const USAGE: &str = "usage: pimbench [--workload NAME|all] [--seed N] [--seconds S] \
[--trace [0|1]] [--verify] [--quick] [--spans FILE] [--json FILE]";

/// Command-line options.
#[derive(Debug)]
struct Opts {
    workloads: Vec<&'static str>,
    seed: u64,
    /// Measuring time per selected workload.
    seconds: f64,
    trace: bool,
    /// One sample per workload, checked against the pinned fingerprints.
    verify: bool,
    /// One round at tiny scales (the smoke test).
    quick: bool,
    spans: Option<String>,
    json: Option<String>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            workloads: workloads::NAMES.to_vec(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            verify: false,
            quick: false,
            spans: None,
            json: None,
        }
    }
}

impl Opts {
    fn parse(args: impl Iterator<Item = String>) -> Result<Opts, String> {
        let mut o = Opts::default();
        let mut it = args.peekable();
        while let Some(flag) = it.next() {
            let mut value = |what: &str| {
                it.next()
                    .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
            };
            match flag.as_str() {
                "--workload" => {
                    let w = value("a workload name")?;
                    o.workloads = match workloads::NAMES.into_iter().find(|n| *n == w) {
                        Some(name) => vec![name],
                        None if w == "all" => workloads::NAMES.to_vec(),
                        None => {
                            let known = workloads::NAMES.join(", ");
                            return Err(format!(
                                "unknown workload '{w}' (known: all, {known})\n{USAGE}"
                            ));
                        }
                    };
                }
                "--seed" => {
                    o.seed = value("an unsigned integer")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}\n{USAGE}"))?;
                }
                "--seconds" => {
                    o.seconds = value("a number of seconds")?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds needs a positive number\n{USAGE}"))?;
                }
                "--trace" => {
                    o.trace = true;
                    if let Some(v) = it.next_if(|v| v == "0" || v == "1") {
                        o.trace = v == "1";
                    }
                }
                "--verify" => o.verify = true,
                "--quick" => o.quick = true,
                "--spans" => o.spans = Some(value("a file")?),
                "--json" => o.json = Some(value("a file")?),
                other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
            }
        }
        Ok(o)
    }
}

/// Whether a metric belongs to the end-to-end set, the per-layer set,
/// or is printed for information only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    EndToEnd,
    Layer,
    Info,
}

#[derive(Debug)]
struct Metric {
    workload: &'static str,
    name: String,
    value: f64,
    unit: &'static str,
    kind: Kind,
}

/// A benchmark-side span: a sample, or one of its simulations, or the
/// setup / run / harvest phase of a simulation. Spans of one sample share
/// its `sample` id.
#[derive(Debug)]
struct Span {
    id: u64,
    parent: Option<u64>,
    sample: u64,
    name: &'static str,
    workload: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Everything a run produced.
#[derive(Debug, Default)]
struct Report {
    metrics: Vec<Metric>,
    /// `(workload, fingerprint, status)`.
    fingerprints: Vec<(&'static str, u64, &'static str)>,
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    spans: Vec<Span>,
}

/// One measured sample.
#[derive(Debug, Clone, Copy)]
struct Sample {
    wall_ns: u64,
    /// What a user waits for: the run phase of a solo simulation, the
    /// whole sweep for `policy_sweep`.
    timed_ns: u64,
    /// Simulated GPU cycles per `timed_ns`.
    rate: f64,
    /// Σ run-phase time of its simulations.
    run_ns: u64,
    /// Σ setup-to-harvest time of its simulations (busy pool lanes).
    busy_ns: u64,
}

/// Per-workload accumulator.
struct Tally {
    name: &'static str,
    specs: Vec<SimSpec>,
    sweep: bool,
    spent: Duration,
    plain: Vec<Sample>,
    traced: Vec<Sample>,
    counters: Counters,
    setup_ns: Vec<f64>,
    new_ns: Vec<f64>,
    mount_ns: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// The pinned fingerprint for this seed, if any.
    pinned: Option<u64>,
    /// The first sample's fingerprint; every later sample must match it.
    seen: Option<u64>,
    mismatch: bool,
    peak_rss_mb: f64,
}

impl Tally {
    fn new(name: &'static str, quick: bool, seed: u64) -> Tally {
        Tally {
            name,
            specs: workloads::specs(name, quick),
            sweep: name == "policy_sweep",
            spent: Duration::ZERO,
            plain: Vec::new(),
            traced: Vec::new(),
            counters: Counters::default(),
            setup_ns: Vec::new(),
            new_ns: Vec::new(),
            mount_ns: Vec::new(),
            attempted: 0,
            failed: 0,
            pinned: if quick {
                None
            } else {
                workloads::pinned(name, seed)
            },
            seen: None,
            mismatch: false,
            peak_rss_mb: 0.0,
        }
    }

    /// Runs `specs` once: the sweep on the worker pool, a solo workload
    /// on this thread.
    fn execute(&self, specs: &[SimSpec], seed: u64, traced: bool) -> Vec<SimRecord> {
        if self.sweep {
            pimsim_sim::experiments::sweep::parallel_map(specs.to_vec(), move |s| {
                sim::run(&s, seed, traced)
            })
        } else {
            specs.iter().map(|s| sim::run(s, seed, traced)).collect()
        }
    }

    fn warm_up(&self, seed: u64) {
        // The sweep warms the pool and allocator on its baselines only.
        let specs: Vec<SimSpec> = self
            .specs
            .iter()
            .filter(|s| !(self.sweep && s.restart))
            .cloned()
            .collect();
        for _ in 0..2 {
            self.execute(&specs, seed, false);
        }
    }

    /// One measured sample: runs it, checks it, and records its timings
    /// (and, traced, its counters and spans).
    fn sample(&mut self, seed: u64, traced: bool, epoch: Instant, report: &mut Report) {
        let t0 = Instant::now();
        let records = self.execute(&self.specs, seed, traced);
        let t1 = Instant::now();
        let wall_ns = sim::ns(t0, t1);
        self.attempted += 1;

        let fp = if records.len() == 1 {
            records[0].fingerprint
        } else {
            sim::fnv1a(records.iter().map(|r| r.fingerprint))
        };
        let mut errors: Vec<String> = records
            .iter()
            .filter(|r| !r.ok())
            .map(|r| format!("{}: {}", self.name, r.error))
            .collect();
        let want = self.pinned.unwrap_or(*self.seen.get_or_insert(fp));
        if want != fp {
            self.mismatch = true;
            errors.push(format!(
                "{}: fingerprint {fp:016x} != expected {want:016x}",
                self.name
            ));
        }
        if !errors.is_empty() {
            self.failed += 1;
            report.errors.extend(errors);
            return;
        }

        let cycles: u64 = records.iter().map(|r| r.gpu_cycles).sum();
        let run_ns: u64 = records.iter().map(SimRecord::run_ns).sum();
        let busy_ns: u64 = records.iter().map(|r| sim::ns(r.t_start, r.t_end)).sum();
        let timed_ns = if self.sweep { wall_ns } else { run_ns };
        let s = Sample {
            wall_ns,
            timed_ns,
            rate: cycles as f64 / (timed_ns.max(1) as f64 / 1e9),
            run_ns,
            busy_ns,
        };
        if traced {
            self.traced.push(s);
            for r in &records {
                self.counters
                    .add(r.counters.as_ref().expect("traced runs harvest counters"));
            }
            self.record_spans(&records, t0, t1, epoch, report);
        } else {
            self.plain.push(s);
            for r in &records {
                self.setup_ns.push(r.setup_ns() as f64);
                self.new_ns.push(sim::ns(r.t_start, r.t_new) as f64);
                self.mount_ns.push(sim::ns(r.t_new, r.t_setup) as f64);
            }
        }
    }

    fn record_spans(
        &self,
        records: &[SimRecord],
        t0: Instant,
        t1: Instant,
        epoch: Instant,
        report: &mut Report,
    ) {
        let at = |t: Instant| sim::ns(epoch, t);
        let sample = report.spans.len() as u64 + 1;
        let mut push = |parent: Option<u64>, name, start: Instant, end: Instant| {
            let id = report.spans.len() as u64 + 1;
            report.spans.push(Span {
                id,
                parent,
                sample,
                name,
                workload: self.name,
                start_ns: at(start),
                end_ns: at(end),
            });
            id
        };
        let root = push(None, "sample", t0, t1);
        for r in records {
            let parent = if self.sweep {
                push(Some(root), "sim", r.t_start, r.t_end)
            } else {
                root
            };
            push(Some(parent), "setup", r.t_start, r.t_setup);
            push(Some(parent), "run", r.t_setup, r.t_run);
            push(Some(parent), "harvest", r.t_run, r.t_end);
        }
    }

    fn metrics(&self, trace: bool, shared: &[(String, f64, &'static str)]) -> Vec<Metric> {
        let mut out = Vec::new();
        let mut push = |name: &str, value: f64, unit: &'static str, kind: Kind| {
            out.push(Metric {
                workload: self.name,
                name: name.to_owned(),
                value: if value.is_finite() { value } else { 0.0 },
                unit,
                kind,
            });
        };
        let rates: Vec<f64> = self.plain.iter().map(|s| s.rate).collect();
        let timed: Vec<f64> = self.plain.iter().map(|s| s.timed_ns as f64 / 1e9).collect();
        // Host interference only ever slows a sample, and it slows a share
        // of them that drifts from minute to minute; the lower quartile
        // (the median of the faster half) follows the program, not that
        // share. Every sample is the same computation, so the slow tail
        // carries no information about the program.
        push("run_s", quantile(&timed, 0.25), "s", Kind::EndToEnd);
        push("setup_s", median(&self.setup_ns) / 1e9, "s", Kind::EndToEnd);
        push("peak_rss_mb", self.peak_rss_mb, "MiB", Kind::EndToEnd);
        push("sim_cycles_per_s", median(&rates), "cycles/s", Kind::Info);
        push(
            "failed_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
            Kind::Info,
        );
        push("samples", self.plain.len() as f64, "count", Kind::Info);
        push("run_p50_s", quantile(&timed, 0.5), "s", Kind::Info);
        push("run_p90_s", quantile(&timed, 0.9), "s", Kind::Info);
        if !trace {
            return out;
        }
        let n = self.traced.len() as u64;
        for (name, value, unit) in self.counters.metrics(n) {
            push(&name, value, unit, Kind::Layer);
        }
        let plain_run: Vec<f64> = self.plain.iter().map(|s| s.run_ns as f64).collect();
        let traced_run: Vec<f64> = self.traced.iter().map(|s| s.run_ns as f64).collect();
        let completions = self.counters.mix.completions_delivered as f64 / n.max(1) as f64;
        push(
            "sim.host_ns_per_request",
            median(&plain_run) / completions.max(1.0),
            "ns",
            Kind::Layer,
        );
        let lanes = if self.sweep {
            pimsim_pool::global().threads().min(self.specs.len())
        } else {
            1
        };
        let busy: u64 = self.plain.iter().map(|s| s.busy_ns).sum();
        let wall: u64 = self.plain.iter().map(|s| s.wall_ns).sum();
        push(
            "pool.cpu_util",
            busy as f64 / (wall.max(1) as f64 * lanes as f64),
            "ratio",
            Kind::Layer,
        );
        push(
            "setup.sim_new_s",
            median(&self.new_ns) / 1e9,
            "s",
            Kind::Layer,
        );
        push(
            "setup.mount_s",
            median(&self.mount_ns) / 1e9,
            "s",
            Kind::Layer,
        );
        push(
            "trace.overhead_frac",
            median(&traced_run) / median(&plain_run) - 1.0,
            "ratio",
            Kind::Layer,
        );
        for (name, value, unit) in shared {
            push(name, *value, unit, Kind::Layer);
        }
        out
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v` (0 for an empty slice).
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for VmHWM: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Resets `VmHWM` to the current RSS, so the next reading is the peak of
/// what ran in between. Best effort: without it the reading is the
/// process-wide peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `pool.shard2_speedup`: `mem_dense` with the memory stage sharded over
/// two threads vs serial, median of interleaved pairs.
fn shard2_speedup(quick: bool, seed: u64) -> f64 {
    let base = workloads::specs("mem_dense", quick).remove(0);
    let mut rates = [Vec::new(), Vec::new()];
    for pair in 0..if quick { 1 } else { 3 } {
        for k in 0..2 {
            let width = 1 + (pair + k) % 2;
            let spec = SimSpec {
                memory_threads: width,
                ..base.clone()
            };
            let r = sim::run(&spec, seed, false);
            rates[width - 1].push(r.gpu_cycles as f64 / r.run_ns().max(1) as f64);
        }
    }
    median(&rates[1]) / median(&rates[0])
}

fn run(opts: &Opts) -> Result<Report, String> {
    let epoch = Instant::now();
    let mut report = Report::default();
    let mut tallies: Vec<Tally> = opts
        .workloads
        .iter()
        .map(|&w| Tally::new(w, opts.quick, opts.seed))
        .collect();
    let one_round = opts.quick || opts.verify;
    if !one_round {
        for t in &tallies {
            t.warm_up(opts.seed);
        }
    }
    let n = tallies.len();
    let budget = Duration::from_secs_f64(opts.seconds) * n as u32;
    let start = Instant::now();
    let mut round = 0;
    while round == 0 || (!one_round && start.elapsed() < budget) {
        let fair = start.elapsed() / n as u32;
        for k in 0..n {
            let t = &mut tallies[(round + k) % n];
            if round > 0 && t.spent > fair {
                continue;
            }
            if n > 1 {
                reset_peak_rss();
            }
            let t0 = Instant::now();
            // Traced runs alternate which of the pair goes first.
            let order: &[bool] = match (opts.trace, round % 2) {
                (false, _) => &[false],
                (true, 0) => &[false, true],
                (true, _) => &[true, false],
            };
            for &traced in order {
                t.sample(opts.seed, traced, epoch, &mut report);
            }
            t.spent += t0.elapsed();
            t.peak_rss_mb = t.peak_rss_mb.max(peak_rss_mb()?);
        }
        round += 1;
    }

    let mut shared = Vec::new();
    if opts.trace {
        let reps = if opts.quick { 1 } else { 5 };
        shared = micro::all(reps, if opts.quick { 0.001 } else { 1.0 });
        shared.push((
            "pool.shard2_speedup".to_owned(),
            shard2_speedup(opts.quick, opts.seed),
            "x",
        ));
    }
    for t in &tallies {
        report.metrics.extend(t.metrics(opts.trace, &shared));
        report.attempted += t.attempted;
        report.failed += t.failed;
        let status = match (t.mismatch, t.pinned) {
            (true, _) => "MISMATCH",
            (false, Some(_)) => "pinned",
            (false, None) => "consistent",
        };
        report
            .fingerprints
            .push((t.name, t.seen.unwrap_or(0), status));
    }
    Ok(report)
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable lines: every metric, then every fingerprint.
    fn text(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let _ = writeln!(s, "{} {} {} {}", m.workload, m.name, m.value, m.unit);
        }
        for (w, fp, status) in &self.fingerprints {
            let _ = writeln!(s, "fingerprint {w} {fp:016x} {status}");
        }
        for e in &self.errors {
            let _ = writeln!(s, "error {e}");
        }
        s
    }

    /// The result line: end-to-end metrics, or per-layer ones when
    /// traced, keyed by name (prefixed with the workload when several
    /// ran).
    fn result_line(&self, trace: bool, single: bool) -> String {
        let want = if trace { Kind::Layer } else { Kind::EndToEnd };
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.kind == want)
            .map(|m| {
                let key = if single {
                    m.name.clone()
                } else {
                    format!("{}.{}", m.workload, m.name)
                };
                format!(
                    "\"{key}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn metrics_json(&self, seed: u64) -> String {
        let rows: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "  {{\"workload\": \"{}\", \"metric\": \"{}\", \"value\": {}, \"unit\": \"{}\"}}",
                    m.workload, m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"seed\": {seed}, \"metrics\": [\n{}\n]}}\n",
            rows.join(",\n")
        )
    }

    fn spans_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
                format!(
                    "  {{\"id\": {}, \"parent\": {parent}, \"sample\": {}, \"name\": \"{}\", \
                     \"workload\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                    s.id, s.sample, s.name, s.workload, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

fn main() {
    let opts = match Opts::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    // Pin the worker pool before anything builds it, so the sweep runs on
    // the same number of threads on every host.
    std::env::set_var("PIMSIM_THREADS", workloads::SWEEP_THREADS.to_string());
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pimbench: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", report.text());
    let write = |path: &Option<String>, body: String| {
        if let Some(path) = path {
            if let Err(e) = std::fs::write(path, body) {
                eprintln!("pimbench: write {path}: {e}");
                std::process::exit(1);
            }
        }
    };
    write(&opts.json, report.metrics_json(opts.seed));
    write(&opts.spans, report.spans_json());
    println!(
        "{}",
        report.result_line(opts.trace, opts.workloads.len() == 1)
    );
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric BENCHMARK.json lists, one per line.
    fn listed_metrics() -> Vec<(String, String)> {
        include_str!("../../BENCHMARK.json")
            .lines()
            .filter(|l| l.contains("\"unit\""))
            .map(|l| {
                let f: Vec<&str> = l.split('"').collect();
                assert_eq!((f[1], f[5]), ("name", "unit"), "unexpected line {l}");
                (f[3].to_owned(), f[7].to_owned())
            })
            .collect()
    }

    #[test]
    fn quick_run_prints_every_listed_metric_and_checks_outputs() {
        let listed = listed_metrics();
        assert!(listed.iter().any(|(n, _)| n == "setup_s"));
        let mut text = String::new();
        let mut fingerprints = Vec::new();
        for trace in [false, true] {
            let opts = Opts {
                quick: true,
                trace,
                ..Opts::default()
            };
            let report = run(&opts).expect("quick run");
            assert!(report.correct(), "{}", report.text());
            assert!(report
                .result_line(trace, false)
                .starts_with("{\"correct\": true"));
            text += &report.text();
            fingerprints.push(report.fingerprints);
        }
        for w in workloads::NAMES {
            for (name, unit) in &listed {
                let head = format!("{w} {name} ");
                let tail = format!(" {unit}");
                assert!(
                    text.lines()
                        .any(|l| l.starts_with(&head) && l.ends_with(&tail)),
                    "no '{w} {name} <value> {unit}' line in\n{text}"
                );
            }
            assert!(text.contains(&format!("{w} failed_frac 0 ratio\n")));
        }
        // Each workload's fingerprint was checked across samples, and
        // tracing does not change what is simulated.
        assert_eq!(fingerprints[0].len(), workloads::NAMES.len());
        assert!(fingerprints[0].iter().all(|f| f.2 == "consistent"));
        assert_eq!(fingerprints[0], fingerprints[1]);
    }

    #[test]
    fn options_follow_the_benchmark_command_line() {
        let parse = |s: &str| Opts::parse(s.split_whitespace().map(str::to_owned));
        let o = parse("--workload mem_dense --seed 7 --seconds 10 --trace 0").expect("valid");
        assert_eq!(
            (o.workloads, o.seed, o.seconds, o.trace),
            (vec!["mem_dense"], 7, 10.0, false)
        );
        assert!(parse("--trace").expect("valid").trace);
        assert!(parse("--trace 1 --quick").expect("valid").trace);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
    }
}
