//! Hot-loop gate: one profiled pass of each simulator-throughput scenario
//! (`pimsim_bench::HOTLOOP_SCENARIOS`: standalone MEM, standalone and
//! throttled PIM on both DRAM backends, and F3FS competitive
//! co-execution) in the default configuration, checked against the
//! counters committed in `BENCH_hotloop.json`.
//!
//! Run with `cargo run --release -p pimsim-bench --bin hotloop`. Per
//! scenario, the binary asserts that
//!
//! * an untimed pass with fast-forward off simulates the same number of
//!   cycles;
//! * the skip count reaches, and the memory, reply-network and
//!   completion tick counts and replayed partition visits stay within,
//!   the committed values, and so does the controllers' step mix (full
//!   steps at most, memo replays, plan-retired cycles and burst plans at
//!   least the committed counts);
//! * the profiled pass runs at least [`FLOOR`] simulated cycles per wall
//!   second.
//!
//! Once every scenario passes, it rewrites `BENCH_hotloop.json`. The
//! counters are deterministic, so host noise cannot move them. Wall-clock
//! comparisons belong to pimbench's A/B protocol (`pimbench/README.md`,
//! run by `scripts/bench_compare.sh`) and to `ablation`, not to this
//! binary.

use std::time::Instant;

use pimsim_bench::{
    hotloop_config, hotloop_kernels, hotloop_policy, hotloop_runner, run_hotloop_scenario,
    HOTLOOP_BUDGET, HOTLOOP_SCENARIOS,
};
use pimsim_core::StepMix;
use pimsim_sim::{Simulator, StageProfile};

/// Throughput floor of every scenario's profiled pass, simulated GPU
/// cycles per wall second: several times below the slowest scenario
/// (co-execution), so it trips on asymptotic regressions (a per-tick
/// scan creeping back into the busy path), not on machine noise.
const FLOOR: f64 = 25_000.0;
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

/// What the profiled pass of one scenario produced.
struct Pass {
    /// Simulated GPU cycles, counted as [`run_hotloop_scenario`] counts
    /// them: the kernel's first run when standalone, the whole run for
    /// co-execution.
    cycles: u64,
    /// Simulated cycles per wall second, set-up included.
    rate: f64,
    prof: StageProfile,
    mix: StepMix,
    ff_skips: u64,
    ff_skipped: u64,
}

/// One pass of scenario `name` in the default configuration (fast-forward,
/// stall memo, burst retirement and partition lag on) with per-stage wall
/// timers on. Kernels mount and run as in `Runner::standalone` and
/// `Runner::coexec`.
fn profile_scenario(name: &str) -> Pass {
    let t = Instant::now();
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
    let cycles = if coexec {
        // Starvation cutoff is a legitimate end, as in Runner::coexec.
        let _ = sim.run_with_starvation_cutoff(HOTLOOP_BUDGET, Some(25));
        sim.gpu_cycles()
    } else {
        sim.run_until_all_first_done(HOTLOOP_BUDGET)
            .expect("finishes");
        sim.kernels()[0].first_run_cycles.expect("run finished")
    };
    let rate = cycles as f64 / t.elapsed().as_secs_f64();
    let (ff_skips, ff_skipped) = sim.fast_forward_stats();
    Pass {
        cycles,
        rate,
        prof: *sim.stage_profile().expect("profiling was enabled"),
        mix: sim.merged_step_mix(),
        ff_skips,
        ff_skipped,
    }
}

fn main() {
    println!("\n=== Hot-loop gate: one profiled pass per scenario against BENCH_hotloop.json ===");
    let committed =
        std::fs::read_to_string(COMMITTED).unwrap_or_else(|e| panic!("read {COMMITTED}: {e}"));
    let mut entries = Vec::new();
    for name in HOTLOOP_SCENARIOS {
        let Pass {
            cycles,
            rate,
            prof,
            mix,
            ff_skips,
            ff_skipped,
        } = profile_scenario(name);
        let mut lockstep = hotloop_runner(name);
        lockstep.fast_forward = false;
        assert_eq!(
            cycles,
            run_hotloop_scenario(name, &lockstep).0,
            "{name}: fast-forward changed the simulated cycle count"
        );
        println!("  {name:16} {cycles:>10} cycles   {rate:>12.0}/s profiled");
        assert!(
            rate >= FLOOR,
            "{name} ran at {rate:.0} simulated cycles/s, below the floor of {FLOOR:.0}"
        );
        // The gate, on deterministic counters only. A scenario missing
        // from the committed file fails too, so the gate cannot lapse.
        let bound = |key: &str| {
            committed_counter(&committed, name, key).unwrap_or_else(|| {
                panic!("{name}: no committed `{key}` in {COMMITTED}; add the scenario's block")
            })
        };
        // Lower bounds. Fewer fast-forward skips than committed means a
        // probe is blocked or an idle summary went stale — the standalone
        // MEM collapse this gate exists to catch. The controllers may
        // replay no fewer memo or plan-retired cycles, and plan no fewer
        // bursts.
        for (key, got) in [
            ("skips", ff_skips),
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
        // Upper bounds: the memory, reply-network and completion stages may
        // run no more often, catch-ups may replay no more visits, and the
        // controllers may run no more full scheduling steps than
        // committed. A rise in memory or reply-network ticks means
        // partition lag or the reply gate stopped engaging (a stale reply
        // summary shows up here as well); a rise in completion ticks, that
        // stage 5 ran with no PIM kernel mounted or the reply gate opened
        // more often. A rise in replays means some partition now lags
        // where the committed run stepped it live or dropped it as idle:
        // only a partition that holds no MEM work may lag (DESIGN.md §4k),
        // so a MEM-only scenario replays none. Work done inside a full
        // step may get cheaper; the step mix itself must not move.
        for (key, got) in [
            ("ticks_memory", mix.ticks_memory),
            ("ticks_reply_net", mix.ticks_reply_net),
            ("ticks_completion", mix.ticks_completion),
            ("replayed_visits", mix.replayed_visits),
            ("full_steps", mix.full_steps),
        ] {
            let max = bound(key);
            assert!(
                got <= max,
                "{name}: {key} = {got}, more than the committed {max}"
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
            cycles,
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
    // The workspace has no serializer, so the JSON is formatted by hand.
    // `HOTLOOP_OUT` overrides the path; empty skips the write (the tier-1
    // smoke leaves the committed file as it is).
    let out = std::env::var("HOTLOOP_OUT").unwrap_or_else(|_| "BENCH_hotloop.json".into());
    if !out.is_empty() {
        let json = format!(
            "{{\n  \"benchmark\": \"hotloop\",\n  \"results\": [\n{}\n  ]\n}}\n",
            entries.join(",\n")
        );
        std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
        println!("\nwrote {out}");
    }
}
