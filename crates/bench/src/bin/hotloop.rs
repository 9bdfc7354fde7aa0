//! Hot-loop speedup measurement: simulated GPU cycles per wall-clock
//! second with the event-driven fast-forward on vs off, written to
//! `BENCH_hotloop.json`. The scenarios (`pimsim_bench::HOTLOOP_SCENARIOS`)
//! cover standalone MEM, standalone and throttled PIM on both DRAM
//! backends, and F3FS competitive co-execution.
//!
//! Run with `cargo run --release --bin hotloop`. Every pair first asserts
//! the two modes simulated the same number of cycles — throughput is only
//! comparable because the runs are bit-identical. Per-rep raw rates and
//! the median are reported next to the best, so a reader can tell a tight
//! measurement from a lucky one.
//!
//! The fast-forward gate is deterministic: each scenario's skip count
//! must reach, and its memory, reply-network and completion tick counts
//! and replayed partition visits stay within, the values committed in
//! `BENCH_hotloop.json`, and so must the controllers' step mix (full
//! steps at most, memo replays, plan-retired cycles and burst plans at
//! least the committed counts).
//! Wall-clock rates are reported, not gated — host noise decides them;
//! the counters do not move with it.

use std::time::Instant;

use pimsim_bench::{
    header, hotloop_config, hotloop_kernels, hotloop_policy, hotloop_runner, run_hotloop_scenario,
    HOTLOOP_BUDGET, HOTLOOP_SCENARIOS,
};
use pimsim_core::StepMix;
use pimsim_sim::{Simulator, StageProfile};

/// Criterion-style minimum: repeat each measurement and keep the best, so
/// one scheduler hiccup does not masquerade as a regression. Overridable
/// via `HOTLOOP_REPS` (the tier-1 smoke runs a single rep).
const DEFAULT_REPS: usize = 3;
/// The committed results, whose counters are the deterministic gate's
/// bounds.
const COMMITTED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotloop.json");

/// `key`'s integer value inside `scenario`'s block of the hand-formatted
/// results JSON (one `"key": value` per line).
fn committed_counter(json: &str, scenario: &str, key: &str) -> Option<u64> {
    let start = json.find(&format!("\"scenario\": \"{scenario}\""))?;
    let block = &json[start + 1..];
    let block = &block[..block.find("\"scenario\":").unwrap_or(block.len())];
    let prefix = format!("\"{key}\":");
    let line = block
        .lines()
        .map(str::trim)
        .find(|l| l.starts_with(&prefix))?;
    line[prefix.len()..]
        .trim()
        .trim_end_matches(',')
        .parse()
        .ok()
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One timed pass of scenario `name` with fast-forward on or off.
fn run(name: &str, fast_forward: bool) -> u64 {
    let mut r = hotloop_runner(name);
    r.fast_forward = fast_forward;
    run_hotloop_scenario(name, &r).0
}

/// One profiled pass of a scenario: the same workload as the timed
/// measurement, run once with per-stage wall timers on. Kept separate
/// from the throughput reps because the timer reads themselves cost
/// real time on the fastest scenarios. The pass runs the production
/// configuration (fast-forward, stall memo, and burst retirement all
/// on), so its merged step mix and fast-forward skip counters are also
/// harvested here. Kernels mount and run as in `Runner::standalone` and
/// `Runner::coexec`.
fn profile_scenario(name: &str) -> (StageProfile, StepMix, u64, u64) {
    let mut sim = Simulator::new(hotloop_config(name), hotloop_policy(name));
    sim.set_stage_profiling(true);
    let kernels = hotloop_kernels(name);
    let coexec = kernels.len() > 1;
    let mut base = 0;
    for (kernel, is_pim) in kernels {
        let slots = kernel.num_slots();
        sim.mount(kernel, (base..base + slots).collect(), is_pim, coexec);
        base += slots;
    }
    if coexec {
        // Starvation cutoff is a legitimate end, as in Runner::coexec.
        let _ = sim.run_with_starvation_cutoff(HOTLOOP_BUDGET, Some(25));
    } else {
        sim.run_until_all_first_done(HOTLOOP_BUDGET)
            .expect("finishes");
    }
    let prof = *sim.stage_profile().expect("profiling was enabled");
    let (skips, skipped) = sim.fast_forward_stats();
    (prof, sim.merged_step_mix(), skips, skipped)
}

/// `reps` timed passes: returns the (identical) simulated cycle count and
/// every raw rate in simulated cycles per wall second.
fn measure(name: &str, ff: bool, reps: usize) -> (u64, Vec<f64>) {
    let mut rates = Vec::with_capacity(reps);
    let mut cycles = 0;
    for _ in 0..reps {
        let t = Instant::now();
        cycles = run(name, ff);
        rates.push(cycles as f64 / t.elapsed().as_secs_f64());
    }
    (cycles, rates)
}

fn best(rates: &[f64]) -> f64 {
    rates.iter().copied().fold(0.0, f64::max)
}

fn median(rates: &[f64]) -> f64 {
    let mut s = rates.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn fmt_rates(rates: &[f64]) -> String {
    let list: Vec<String> = rates.iter().map(|r| format!("{r:.1}")).collect();
    format!("[{}]", list.join(", "))
}

fn main() {
    header("Hot-loop throughput: fast-forward on vs off (simulated cycles/sec)");
    let reps = env_u64("HOTLOOP_REPS", DEFAULT_REPS as u64).max(1) as usize;
    // Optional throughput floor (cycles/s, fast-forward on) applied to
    // every scenario: the tier-1 smoke sets this far below any recorded
    // rate so only asymptotic regressions — not machine noise — trip it.
    let floor = env_u64("HOTLOOP_FLOOR", 0) as f64;
    let committed =
        std::fs::read_to_string(COMMITTED).unwrap_or_else(|e| panic!("read {COMMITTED}: {e}"));
    let mut entries = Vec::new();
    let mut slowest: Option<(&str, f64)> = None;
    for name in HOTLOOP_SCENARIOS {
        // Interleave the on/off reps pairwise instead of measuring one
        // block then the other: background load on this host drifts on
        // the timescale of a block, and interleaving exposes both modes
        // to the same noise.
        let mut rates_on = Vec::new();
        let mut rates_off = Vec::new();
        let (mut cycles_on, mut cycles_off) = (0, 0);
        for _ in 0..reps {
            let (c, r) = measure(name, true, 1);
            cycles_on = c;
            rates_on.extend(r);
            let (c, r) = measure(name, false, 1);
            cycles_off = c;
            rates_off.extend(r);
        }
        assert_eq!(
            cycles_on, cycles_off,
            "{name}: fast-forward changed the simulated cycle count"
        );
        let rate_on = best(&rates_on);
        let rate_off = best(&rates_off);
        let speedup = rate_on / rate_off;
        if slowest.is_none_or(|(_, r)| rate_on < r) {
            slowest = Some((name, rate_on));
        }
        println!(
            "  {name:16} {cycles_on:>10} cycles   ff_on {rate_on:>12.0}/s   ff_off {rate_off:>12.0}/s   speedup {speedup:.2}x"
        );
        println!(
            "  {:16} reps: ff_on {} (median {:.0}/s)   ff_off {} (median {:.0}/s)",
            "",
            fmt_rates(&rates_on),
            median(&rates_on),
            fmt_rates(&rates_off),
            median(&rates_off)
        );
        let (prof, mix, ff_skips, ff_skipped) = profile_scenario(name);
        // Fast-forward regression gate, on deterministic counters only:
        // the skip path must take at least as many jumps as the
        // committed results record. Fewer means a probe is blocked or an
        // idle summary went stale — the standalone MEM collapse this gate
        // exists to catch. A scenario missing from the committed file
        // fails too, so the gate cannot lapse.
        let bound = |key: &str| {
            committed_counter(&committed, name, key).unwrap_or_else(|| {
                panic!("{name}: no committed `{key}` in {COMMITTED}; add the scenario's block")
            })
        };
        let min_skips = bound("skips");
        assert!(
            ff_skips >= min_skips,
            "{name}: fast-forward took {ff_skips} skips, fewer than the committed {min_skips}"
        );
        // Stage ticks and replayed partition visits: the memory,
        // reply-network and completion stages may run no more often, and
        // catch-ups may replay no more visits, than committed. A rise in
        // memory or reply-network ticks means partition lag or the reply
        // gate stopped engaging (a stale reply summary shows up here as
        // well); a rise in completion ticks, that stage 5 ran with no PIM
        // kernel mounted or the reply gate opened more often. A rise in
        // replays means some partition now lags where the committed run
        // stepped it live or dropped it as idle: only a partition that
        // holds no MEM work may lag (DESIGN.md §4k), so a MEM-only
        // scenario replays none.
        for (key, got) in [
            ("ticks_memory", mix.ticks_memory),
            ("ticks_reply_net", mix.ticks_reply_net),
            ("ticks_completion", mix.ticks_completion),
            ("replayed_visits", mix.replayed_visits),
        ] {
            let max = bound(key);
            assert!(
                got <= max,
                "{name}: {key} = {got}, more than the committed {max}"
            );
        }
        // The controller's step mix, gated the same way: no more full
        // scheduling steps, and no fewer memo-replayed or plan-retired
        // cycles or burst plans, than committed. Work done inside a full
        // step may get cheaper; the mix itself must not move.
        let max_full = bound("full_steps");
        assert!(
            mix.full_steps <= max_full,
            "{name}: controllers ran {} full steps, more than the committed {max_full}",
            mix.full_steps
        );
        for (key, got) in [
            ("memo_replayed", mix.memo_replayed),
            ("burst_retired", mix.burst_retired),
            ("bursts_planned", mix.bursts_planned),
        ] {
            let min = bound(key);
            assert!(
                got >= min,
                "{name}: {key} = {got}, fewer than the committed {min}"
            );
        }
        let hit_rate = mix.burst_hit_rate().unwrap_or(0.0);
        if name.starts_with("standalone_pim") {
            // The homogeneous all-PIM scenario is exactly what burst
            // retirement exists for; a zero hit rate means the mechanism
            // silently disengaged.
            assert!(
                mix.burst_retired > 0,
                "{name} retired no cycles through burst plans"
            );
            // Structural gates for partition lag and closed-form plan
            // replay (DESIGN.md §4k, §4h). Lagging partitions must cut
            // the memory stage's tick count at least 3x below
            // one-tick-per-cycle, and catch-ups must replay whole plan
            // windows in closed form (a zero count means plan replay
            // silently switched off and every plan tick is stepped).
            assert!(
                mix.ticks_memory * 3 <= prof.stepped_cycles,
                "{name}: memory stage ran {} ticks over {} stepped cycles; \
                 partition lag should defer production at least 3x \
                 below the per-cycle baseline",
                mix.ticks_memory,
                prof.stepped_cycles
            );
            assert!(
                mix.plan_spans_replayed > 0,
                "{name}: no burst-plan window was replayed in closed form"
            );
        }
        let total = prof.total_ns().max(1);
        print!("  {:16} stages:", "");
        let mut stage_fields = Vec::new();
        for (stage, ns) in prof.stages() {
            let pct = ns as f64 * 100.0 / total as f64;
            print!(" {stage} {pct:.0}%");
            stage_fields.push(format!(
                "        \"{stage}_ns\": {ns},\n        \"{stage}_pct\": {pct:.1}"
            ));
        }
        println!("  ({} stepped cycles)", prof.stepped_cycles);
        println!(
            "  {:16} step mix: full {} / memo {} / burst {} (hit rate {:.3}, {} plans, {} ops)   ff: {} skips, {} cycles",
            "",
            mix.full_steps,
            mix.memo_replayed,
            mix.burst_retired,
            hit_rate,
            mix.bursts_planned,
            mix.burst_ops,
            ff_skips,
            ff_skipped
        );
        println!(
            "  {:16} stage ticks: issue {} / req_net {} / memory {} / reply_net {} / completion {}   ({} completions delivered)",
            "",
            mix.ticks_issue,
            mix.ticks_request_net,
            mix.ticks_memory,
            mix.ticks_reply_net,
            mix.ticks_completion,
            mix.completions_delivered
        );
        println!(
            "  {:16} deposits: {} acks deposited / {} plan spans replayed",
            "", mix.acks_batched, mix.plan_spans_replayed
        );
        let window = mix.mean_deferral_window().unwrap_or(0.0);
        println!(
            "  {:16} replay: mean deferral window {:.1} ({} visits over {} replays)",
            "", window, mix.replayed_visits, mix.replay_batches
        );
        entries.push(format!(
            concat!(
                "    {{\n",
                "      \"scenario\": \"{}\",\n",
                "      \"simulated_cycles\": {},\n",
                "      \"cycles_per_sec_ff_on\": {:.1},\n",
                "      \"cycles_per_sec_ff_off\": {:.1},\n",
                "      \"rates_ff_on\": {},\n",
                "      \"rates_ff_off\": {},\n",
                "      \"median_ff_on\": {:.1},\n",
                "      \"median_ff_off\": {:.1},\n",
                "      \"speedup\": {:.3},\n",
                "      \"speedup_median\": {:.3},\n",
                "      \"step_mix\": {{\n",
                "        \"full_steps\": {},\n",
                "        \"memo_replayed\": {},\n",
                "        \"burst_retired\": {},\n",
                "        \"memo_invalidations\": {},\n",
                "        \"bursts_planned\": {},\n",
                "        \"burst_ops\": {},\n",
                "        \"burst_hit_rate\": {:.4},\n",
                "        \"acks_batched\": {},\n",
                "        \"plan_spans_replayed\": {},\n",
                "        \"replay_batches\": {},\n",
                "        \"replayed_visits\": {},\n",
                "        \"mean_deferral_window\": {:.2},\n",
                "        \"ticks_issue\": {},\n",
                "        \"ticks_request_net\": {},\n",
                "        \"ticks_memory\": {},\n",
                "        \"ticks_reply_net\": {},\n",
                "        \"ticks_completion\": {},\n",
                "        \"completions_delivered\": {}\n",
                "      }},\n",
                "      \"fast_forward\": {{\n",
                "        \"skips\": {},\n",
                "        \"skipped_gpu_cycles\": {}\n",
                "      }},\n",
                "      \"stage_breakdown\": {{\n",
                "        \"stepped_cycles\": {},\n",
                "{}\n",
                "      }}\n",
                "    }}"
            ),
            name,
            cycles_on,
            rate_on,
            rate_off,
            fmt_rates(&rates_on),
            fmt_rates(&rates_off),
            median(&rates_on),
            median(&rates_off),
            speedup,
            median(&rates_on) / median(&rates_off),
            mix.full_steps,
            mix.memo_replayed,
            mix.burst_retired,
            mix.memo_invalidations,
            mix.bursts_planned,
            mix.burst_ops,
            hit_rate,
            mix.acks_batched,
            mix.plan_spans_replayed,
            mix.replay_batches,
            mix.replayed_visits,
            window,
            mix.ticks_issue,
            mix.ticks_request_net,
            mix.ticks_memory,
            mix.ticks_reply_net,
            mix.ticks_completion,
            mix.completions_delivered,
            ff_skips,
            ff_skipped,
            prof.stepped_cycles,
            stage_fields.join(",\n")
        ));
    }
    // serde is vendored as a no-op shim in this workspace, so the JSON is
    // formatted by hand. `HOTLOOP_OUT` overrides the path; empty skips the
    // write (the tier-1 smoke must not clobber the committed best-of-3).
    let out = std::env::var("HOTLOOP_OUT").unwrap_or_else(|_| "BENCH_hotloop.json".into());
    if !out.is_empty() {
        let json = format!(
            "{{\n  \"benchmark\": \"hotloop\",\n  \"unit\": \"simulated_gpu_cycles_per_wall_second\",\n  \"reps\": {reps},\n  \"results\": [\n{}\n  ]\n}}\n",
            entries.join(",\n")
        );
        std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
        println!("\nwrote {out}");
    }
    if floor > 0.0 {
        let (name, rate) = slowest.expect("at least one scenario ran");
        if rate < floor {
            eprintln!(
                "FAIL: {name} ran at {rate:.0} simulated cycles/s, below the floor of {floor:.0}"
            );
            std::process::exit(1);
        }
        println!("floor check passed: slowest scenario {name} at {rate:.0}/s >= {floor:.0}/s");
    }
}
