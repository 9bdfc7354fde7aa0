//! The PIM energy argument, quantified: run the same vector-add work once
//! as a PIM kernel (compute at the banks) and once as an equivalent
//! load/store GPU kernel (move everything across the bus), and compare
//! DRAM energy with the extension energy model, priced with the HBM
//! backend's coefficients.
//!
//! ```sh
//! cargo run --release --example energy_accounting
//! ```

use pim_coscheduling::gpu::{GpuKernelParams, KernelModel, SyntheticGpuKernel};
use pim_coscheduling::prelude::*;
use pim_coscheduling::sim::Simulator;
use pim_coscheduling::workloads::pim_kernel;

fn main() {
    let scale = 0.3;

    // PIM STREAM-Add: 3 ops per element chunk, all at the banks.
    let pim = pim_kernel(PimBenchmark(1), 32, 4, 256, scale);
    let pim_ops = pim.total_requests();
    let mut sim = Simulator::new(SystemConfig::default(), PolicyKind::FrFcfs);
    sim.mount(Box::new(pim), (0..8).collect(), true, false);
    sim.run_until_all_first_done(10_000_000).expect("PIM run");
    let pim_cycles = sim.gpu_cycles();
    let pim_energy = sim.total_energy();

    // Host-side equivalent: one lock-step PIM op touches a DRAM word on
    // every bank, so the host must issue banks-times as many 32 B
    // loads/stores, streaming (uncached).
    let banks = SystemConfig::default().dram.banks as u64;
    let host = SyntheticGpuKernel::new(
        GpuKernelParams {
            name: "host-vector-add".into(),
            total_requests: pim_ops * banks,
            issue_interval: 2,
            read_fraction: 2.0 / 3.0, // load a, load b, store c
            footprint_bytes: 64 * 1024 * 1024,
            row_locality: 0.95,
            l2_reuse: 0.0, // streaming: nothing is reused
            streams_per_slot: 4,
            seed: 7,
        },
        72,
    );
    let mut sim = Simulator::new(SystemConfig::default(), PolicyKind::FrFcfs);
    sim.mount(Box::new(host), (8..80).collect(), false, false);
    sim.run_until_all_first_done(10_000_000).expect("host run");
    let host_cycles = sim.gpu_cycles();
    let host_energy = sim.total_energy();

    println!(
        "vector add: {pim_ops} PIM ops x {banks} banks = {} x 32 B words touched\n",
        pim_ops * banks
    );
    for (label, cycles, e) in [
        ("PIM (at the banks)", pim_cycles, &pim_energy),
        ("host (across the bus)", host_cycles, &host_energy),
    ] {
        println!("{label}: {cycles} GPU cycles");
        println!(
            "  energy: {:.1} µJ total (row {:.1}, array {:.1}, I/O {:.1}, PIM {:.1}, background {:.1})",
            e.total() / 1e6,
            e.row / 1e6,
            e.mem_array / 1e6,
            e.io / 1e6,
            e.pim / 1e6,
            e.background / 1e6
        );
    }
    let dyn_pim = pim_energy.total() - pim_energy.background;
    let dyn_host = host_energy.total() - host_energy.background;
    println!(
        "\ndynamic-energy ratio host/PIM: {:.2}x (I/O elimination is the win — the\n\
         bus-crossing term is {:.1} µJ for the host and {:.1} µJ for PIM)",
        dyn_host / dyn_pim,
        host_energy.io / 1e6,
        pim_energy.io / 1e6
    );
}
