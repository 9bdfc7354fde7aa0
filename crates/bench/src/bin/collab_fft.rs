//! The FFT collaborative scenario (extension): transpose/twiddle on the
//! GPU overlapped with row-wise butterfly passes on PIM. Here the *PIM*
//! stage is the longer kernel — the mirror image of the LLM — so the
//! policy ranking flips: MEM-favoring behavior wastes the critical path
//! and PIM-favoring behavior approaches the ideal.

use pimsim_bench::{header, or_exit, BenchArgs};
use pimsim_core::PolicyKind;
use pimsim_sim::{CollabOutcome, Runner};
use pimsim_stats::table::{f3, Table};
use pimsim_types::VcMode;
use pimsim_workloads::fft::fft_scenario;

fn main() {
    let args = BenchArgs::parse();
    let system = args.system();
    let outstanding = system.gpu.max_outstanding_pim_per_warp as u32;
    let mk = || fft_scenario(72, 32, 4, outstanding, args.scale);

    // Standalone references get four times the budget, as in the
    // experiment drivers.
    let mut solo = Runner::new(system.clone(), PolicyKind::FrFcfs);
    solo.max_gpu_cycles = args.budget * 4;
    let s = mk();
    let gpu_alone = or_exit(solo.standalone(Box::new(s.transpose), 8, false)).cycles;
    let s = mk();
    let pim_alone = or_exit(solo.standalone(Box::new(s.butterflies), 0, true)).cycles;
    let ideal = CollabOutcome::ideal_speedup(gpu_alone, pim_alone);

    header("FFT collaborative scenario (PIM is the longer stage)");
    println!(
        "transpose alone: {gpu_alone} cycles, butterflies alone: {pim_alone} cycles, ideal {ideal:.3}\n"
    );
    let mut t = Table::new(vec!["policy".into(), "VC1".into(), "VC2".into()]);
    let mut policies = PolicyKind::baselines();
    policies.push(PolicyKind::f3fs_competitive());
    // F3FS favoring the slower (PIM) kernel this time: asymmetric 16/32.
    policies.push(PolicyKind::F3fs {
        mem_cap: 16,
        pim_cap: 32,
    });
    for policy in policies {
        let mut row = vec![match policy {
            PolicyKind::F3fs {
                mem_cap: 16,
                pim_cap: 32,
            } => "F3FS (16/32, favor PIM)".to_owned(),
            PolicyKind::F3fs { .. } => "F3FS (32/32)".to_owned(),
            other => other.label().to_owned(),
        }];
        for vc in [VcMode::Shared, VcMode::SplitPim] {
            let mut sys = system.clone();
            sys.noc.vc_mode = vc;
            let mut runner = Runner::new(sys, policy);
            runner.max_gpu_cycles = args.budget;
            let s = mk();
            let speedup = runner
                .collaborative(Box::new(s.transpose), Box::new(s.butterflies))
                .map(|o| o.speedup(gpu_alone, pim_alone))
                .unwrap_or(0.0);
            row.push(f3(speedup));
        }
        t.row(row);
    }
    t.row(vec!["Ideal".into(), f3(ideal), f3(ideal)]);
    println!("{}", t.render());
    println!(
        "(mirror of Figure 11: with PIM on the critical path, PIM-favoring policies win\n\
         and the F3FS asymmetry points the other way)"
    );
}
