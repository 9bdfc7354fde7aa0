//! Fast-path ablation: what each remaining exact shortcut is worth in
//! wall clock, measured by switching it off, and what the whole stack is
//! worth, measured against `Runner::reference` (every fast path off).
//! Written to `BENCH_ablation.json`. The scenarios are `hotloop`'s:
//! standalone MEM, standalone PIM on both DRAM backends, throttled
//! (sparse) PIM on both backends, and F3FS competitive co-execution.
//!
//! Run with `cargo run --release --bin ablation`. For every scenario and
//! every switch, the binary runs `PAIRS` in-process pairs of the default
//! configuration against the same configuration with that one switch
//! flipped, alternating which of the two runs first. Every pair first
//! asserts both runs simulated the same number of cycles and produced
//! equal merged controller stats — the runs are bit-identical, so only
//! wall time may differ. Per switch it records the
//! median over pairs of `switched / default` wall time (above 1 means the
//! fast path pays) and how many pairs the default won. Pairing inside
//! one process exposes both runs to the same host load, which resolves
//! effects of a few percent that separate processes cannot. The host's
//! CPU count is recorded alongside.

use std::time::Instant;

use pimsim_bench::{hotloop_runner, run_hotloop_scenario, HOTLOOP_SCENARIOS};
use pimsim_core::McStats;
use pimsim_sim::Runner;

/// Interleaved pairs per scenario and switch.
const PAIRS: usize = 30;

/// A change to the default runner: the identity for the default, one
/// fast path switched off, or the swap to the reference.
type Switch = fn(&mut Runner);

/// Runs scenario `name` once under `switch`; returns the simulated
/// cycles and the merged controller stats.
fn run(name: &str, switch: Switch) -> (u64, McStats) {
    let mut r = hotloop_runner(name);
    switch(&mut r);
    run_hotloop_scenario(name, &r)
}

/// One timed run: `(simulated cycles, controller stats, wall seconds)`.
fn timed(name: &str, switch: Switch) -> (u64, McStats, f64) {
    let t = Instant::now();
    let (cycles, mc) = run(name, switch);
    (cycles, mc, t.elapsed().as_secs_f64())
}

fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn main() {
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!("\n=== Fast-path ablation: wall time with one switch flipped / default (median of pairs) ===");
    println!("  host CPUs: {host_cpus}, {PAIRS} interleaved pairs per cell\n");
    let default: Switch = |_| {};
    let switches: [(&str, Switch); 3] = [
        ("fast_forward_off", |r| r.fast_forward = false),
        ("partition_lag_off", |r| r.partition_lag = false),
        ("reference", |r| {
            let mut reference = Runner::reference(r.system.clone(), r.policy);
            reference.max_gpu_cycles = r.max_gpu_cycles;
            *r = reference;
        }),
    ];
    let mut entries = Vec::new();
    for name in HOTLOOP_SCENARIOS {
        let mut cells = Vec::new();
        let mut cycles = 0;
        for (label, switch) in switches {
            let (mut ratios, mut base_s, mut switched_s) = (Vec::new(), Vec::new(), Vec::new());
            for pair in 0..PAIRS {
                let (base, flipped) = if pair % 2 == 0 {
                    let base = timed(name, default);
                    (base, timed(name, switch))
                } else {
                    let flipped = timed(name, switch);
                    (timed(name, default), flipped)
                };
                assert_eq!(
                    base.0, flipped.0,
                    "{name}: {label} changed the simulated cycle count"
                );
                assert!(
                    base.1 == flipped.1,
                    "{name}: {label} changed the merged controller stats"
                );
                cycles = base.0;
                ratios.push(flipped.2 / base.2);
                base_s.push(base.2);
                switched_s.push(flipped.2);
            }
            let ratio = median(&ratios);
            let wins = ratios.iter().filter(|&&r| r > 1.0).count();
            println!(
                "  {name:20} {label:19} ratio {ratio:.3}   default faster in {wins:>2}/{PAIRS}   median {:.1} ms vs {:.1} ms",
                median(&base_s) * 1e3,
                median(&switched_s) * 1e3
            );
            cells.push(format!(
                concat!(
                    "        {{\n",
                    "          \"switch\": \"{}\",\n",
                    "          \"median_ratio\": {:.3},\n",
                    "          \"default_faster\": {},\n",
                    "          \"median_default_s\": {:.4},\n",
                    "          \"median_switched_s\": {:.4}\n",
                    "        }}"
                ),
                label,
                ratio,
                wins,
                median(&base_s),
                median(&switched_s)
            ));
        }
        entries.push(format!(
            concat!(
                "    {{\n",
                "      \"scenario\": \"{}\",\n",
                "      \"simulated_cycles\": {},\n",
                "      \"switches\": [\n{}\n      ]\n",
                "    }}"
            ),
            name,
            cycles,
            cells.join(",\n")
        ));
    }
    // The workspace has no serializer, so the JSON is formatted by hand.
    let json = format!(
        "{{\n  \"benchmark\": \"ablation\",\n  \"unit\": \"wall_time_ratio_switched_over_default\",\n  \"pairs\": {PAIRS},\n  \"host_cpus\": {host_cpus},\n  \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write("BENCH_ablation.json", &json).expect("write BENCH_ablation.json");
    println!("\nwrote BENCH_ablation.json");
}
