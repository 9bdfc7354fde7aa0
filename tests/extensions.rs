//! Integration tests for the extension features: SMS-lite end-to-end,
//! closed-page policy, the FFT scenario, trace replay through the full
//! simulator, and energy accounting.

use pim_coscheduling::gpu::{KernelModel, TraceKernel, TraceRecorder};
use pim_coscheduling::prelude::*;
use pim_coscheduling::sim::Simulator;
use pim_coscheduling::types::{PagePolicy, RequestId};
use pim_coscheduling::workloads::{fft_scenario, gpu_kernel, pim_kernel};

const SCALE: f64 = 0.02;

fn runner(policy: PolicyKind) -> pim_coscheduling::sim::Runner {
    let mut r = pim_coscheduling::sim::Runner::new(SystemConfig::default(), policy);
    r.max_gpu_cycles = 4_000_000;
    r
}

#[test]
fn sms_services_both_sides_end_to_end() {
    let r = runner(PolicyKind::Sms {
        batch_cap: 16,
        sjf_percent: 90,
    });
    let out = r.coexec(
        Box::new(gpu_kernel(GpuBenchmark(8), 72, SCALE)),
        Box::new(pim_kernel(PimBenchmark(2), 32, 4, 256, SCALE)),
        true,
    );
    assert!(
        !out.gpu_starved && !out.pim_starved,
        "SMS batches must rotate"
    );
    assert!(out.mc.mem_served > 0 && out.mc.pim_served > 0);
}

#[test]
fn sms_switches_more_than_f3fs() {
    let switches = |policy| {
        runner(policy)
            .coexec(
                Box::new(gpu_kernel(GpuBenchmark(8), 72, SCALE)),
                Box::new(pim_kernel(PimBenchmark(1), 32, 4, 256, SCALE)),
                true,
            )
            .mc
            .switches
    };
    let sms = switches(PolicyKind::Sms {
        batch_cap: 16,
        sjf_percent: 90,
    });
    let f3fs = switches(PolicyKind::f3fs_competitive());
    assert!(
        sms > f3fs,
        "batch boundaries are mode switches: SMS {sms} vs F3FS {f3fs}"
    );
}

#[test]
fn closed_page_lowers_mem_rbhr_end_to_end() {
    let run = |page: PagePolicy| {
        let mut system = SystemConfig::default();
        system.mc.page_policy = page;
        let mut r = pim_coscheduling::sim::Runner::new(system, PolicyKind::FrFcfs);
        r.max_gpu_cycles = 4_000_000;
        r.standalone(Box::new(gpu_kernel(GpuBenchmark(17), 40, SCALE)), 0, false)
            .expect("finishes")
    };
    let open = run(PagePolicy::Open);
    let closed = run(PagePolicy::Closed);
    let open_rbhr = open.mc.mem_rbhr().unwrap_or(0.0);
    let closed_rbhr = closed.mc.mem_rbhr().unwrap_or(0.0);
    assert!(
        closed_rbhr < open_rbhr * 0.5,
        "auto-precharge must kill pathfinder's row hits ({open_rbhr:.2} -> {closed_rbhr:.2})"
    );
    // The requests all still complete.
    assert_eq!(closed.mc.mem_arrivals, closed.mc.mem_served);
}

#[test]
fn fft_scenario_runs_and_pim_is_critical_path() {
    let r = runner(PolicyKind::FrFcfs);
    let s = fft_scenario(72, 32, 4, 256, 0.05);
    let gpu_alone = r
        .standalone(Box::new(s.transpose), 8, false)
        .expect("transpose")
        .cycles;
    let s = fft_scenario(72, 32, 4, 256, 0.05);
    let pim_alone = r
        .standalone(Box::new(s.butterflies), 0, true)
        .expect("butterflies")
        .cycles;
    assert!(
        pim_alone > gpu_alone,
        "FFT's premise: PIM is the longer stage ({pim_alone} vs {gpu_alone})"
    );
    let s = fft_scenario(72, 32, 4, 256, 0.05);
    let out = r
        .collaborative(Box::new(s.transpose), Box::new(s.butterflies))
        .expect("collab");
    let speedup = out.speedup(gpu_alone, pim_alone);
    assert!(speedup > 0.8, "overlap must not be pathological: {speedup}");
}

#[test]
fn trace_replay_matches_synthetic_run_through_full_simulator() {
    // Capture the synthetic kernel's trace by driving the recorder at full
    // speed, then replay it inside the simulator and compare against the
    // synthetic original under identical conditions.
    let sms = 16;
    let mut rec = TraceRecorder::new(Box::new(gpu_kernel(GpuBenchmark(13), sms, SCALE)));
    let mut id = 0u64;
    for now in 0..100_000u64 {
        for slot in 0..sms {
            if rec.try_issue(slot, now, RequestId(id)).is_some() {
                rec.on_complete(slot, RequestId(id), now);
                id += 1;
            }
        }
        if rec.is_done() {
            break;
        }
    }
    assert!(rec.is_done());
    let records = rec.into_records();

    let run = |model: Box<dyn KernelModel>| {
        let mut sim = Simulator::new(SystemConfig::default(), PolicyKind::FrFcfs);
        let k = sim.mount(model, (0..sms).collect(), false, false);
        sim.run_until_all_first_done(4_000_000).expect("finishes");
        (
            sim.kernels()[k].first_run_cycles.expect("done"),
            sim.merged_mc_stats().mem_arrivals,
        )
    };
    let (replay_cycles, replay_arrivals) = run(Box::new(TraceKernel::new("replay", sms, records)));
    let (synth_cycles, synth_arrivals) = run(Box::new(gpu_kernel(GpuBenchmark(13), sms, SCALE)));
    // The replay paces at recorded (uncontended-generator) cycles, so the
    // address stream and DRAM traffic match exactly; time may differ only
    // through issue-pacing slack.
    assert_eq!(replay_arrivals, synth_arrivals, "identical DRAM traffic");
    let ratio = replay_cycles as f64 / synth_cycles as f64;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "replay time {replay_cycles} wildly off synthetic {synth_cycles}"
    );
}

#[test]
fn energy_accounting_is_consistent_across_policies() {
    // Same workload, two policies: total commands differ only in row
    // management, so dynamic energy stays within a band and I/O energy is
    // identical (same serviced requests).
    let run = |policy| {
        let mut sim = Simulator::new(SystemConfig::default(), policy);
        sim.mount(
            Box::new(gpu_kernel(GpuBenchmark(9), 40, SCALE)),
            (0..40).collect(),
            false,
            false,
        );
        sim.run_until_all_first_done(4_000_000).expect("finishes");
        sim.total_energy()
    };
    let a = run(PolicyKind::FrFcfs);
    let b = run(PolicyKind::Fcfs);
    assert!((a.io - b.io).abs() < 1e-6, "same requests, same I/O energy");
    assert!(
        a.row <= b.row,
        "FR-FCFS must not need more activates than FCFS"
    );
}

#[test]
fn energy_is_priced_with_the_run_backends_coefficients() {
    // LPDDR5X moves a 32 B word across the bus for 400 pJ, not HBM's 250:
    // an LP5X run must be priced with its own backend's coefficients.
    let kind = pim_coscheduling::dram::backend::parse_spec("lp5x:ranks=4").expect("registered");
    let mut sim = Simulator::new(
        pim_coscheduling::dram::backend::system_config(kind),
        PolicyKind::FrFcfs,
    );
    sim.mount(
        Box::new(gpu_kernel(GpuBenchmark(9), 40, SCALE)),
        (0..40).collect(),
        false,
        false,
    );
    sim.run_until_all_first_done(4_000_000).expect("finishes");
    let cmds = sim.merged_channel_stats();
    assert!(cmds.reads + cmds.writes > 0, "the MEM run moved no data");
    assert_eq!(
        sim.total_energy().io,
        (cmds.reads + cmds.writes) as f64 * 400.0
    );
}
