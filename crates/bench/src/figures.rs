//! One renderer per figure of the paper's evaluation (and per extension
//! study). Each runs its experiment, reports sweep progress on stderr and
//! writes its tables to `out`.

use std::io::{self, Write};

use pimsim_core::complexity::{f3fs_complexity, fr_fcfs_complexity};
use pimsim_core::PolicyKind;
use pimsim_sim::experiments::characterization::characterize;
use pimsim_sim::experiments::collaborative::{
    llm_settings, run_collaborative, CollabPoint, Scenario,
};
use pimsim_sim::experiments::competitive::{
    run_competitive, CompetitiveConfig, CompetitivePoint, CompetitiveReport,
};
use pimsim_sim::experiments::interference::run_interference;
use pimsim_sim::experiments::sweep::parallel_map;
use pimsim_sim::{CycleBudgetExceeded, Runner};
use pimsim_stats::table::{f2, f3, Table};
use pimsim_stats::FiveNumber;
use pimsim_types::{AddressMapConfig, DramTiming, PagePolicy, SystemConfig, VcMode};
use pimsim_workloads::gpu_kernel;
use pimsim_workloads::pim_suite::PimBenchmark;
use pimsim_workloads::rodinia::{figure13_picks, GpuBenchmark};

use crate::BenchArgs;

/// What a figure returns: its tables written, or why not (a simulation
/// that overran its budget, or a failed write).
pub type Rendered = Result<(), Box<dyn std::error::Error>>;

/// A figure: runs its experiment at the given flags and writes its tables.
pub type Render = fn(&BenchArgs, &mut dyn Write) -> Rendered;

const VCS: [VcMode; 2] = [VcMode::Shared, VcMode::SplitPim];

fn gpus(ids: &[u8]) -> Vec<GpuBenchmark> {
    ids.iter().copied().map(GpuBenchmark).collect()
}

fn pims(ids: &[u8]) -> Vec<PimBenchmark> {
    ids.iter().copied().map(PimBenchmark).collect()
}

/// The representative GPU kernels `--quick` narrows a sweep to.
fn quick_gpus() -> Vec<GpuBenchmark> {
    gpus(&[4, 8, 11, 15, 17, 19])
}

impl BenchArgs {
    /// The paper's full competitive sweep on this run's system, scale and
    /// budget, with `--quick` narrowing the GPU kernels and, if
    /// `quick_pims`, the PIM kernels too.
    fn sweep(&self, quick_pims: bool) -> CompetitiveConfig {
        let mut cfg = CompetitiveConfig::full(self.system(), self.scale, self.budget);
        if self.quick {
            cfg.gpus = quick_gpus();
            if quick_pims {
                cfg.pims = pims(&[1, 2, 4]);
            }
        }
        cfg
    }
}

/// A policy from its registry spec string (`"f3fs:pim-cap=16"`).
fn spec(spec: &str) -> PolicyKind {
    PolicyKind::parse_spec(spec).unwrap_or_else(|e| panic!("{spec}: {e}"))
}

fn table(columns: &[&str]) -> Table {
    Table::new(columns.iter().map(|&c| c.to_owned()).collect())
}

/// Writes a section header in the style of the figure captions.
fn header(out: &mut dyn Write, title: &str) -> io::Result<()> {
    writeln!(out, "\n=== {title} ===")
}

/// Writes `t` under a section header.
fn section(out: &mut dyn Write, title: &str, t: &Table) -> io::Result<()> {
    header(out, title)?;
    writeln!(out, "{}", t.render())
}

/// Writes a figure's closing note.
fn note(out: &mut dyn Write, text: &str) -> Rendered {
    Ok(writeln!(out, "{text}")?)
}

/// Formats a five-number summary as `min/q1/med/q3/max`.
fn fmt_box(f: FiveNumber) -> String {
    format!(
        "{:8.2} {:8.2} {:8.2} {:8.2} {:8.2}",
        f.min, f.q1, f.median, f.q3, f.max
    )
}

fn mean(values: Vec<f64>) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn run(cfg: &CompetitiveConfig, what: &str) -> Result<CompetitiveReport, CycleBudgetExceeded> {
    eprintln!(
        "{what}: {} GPU x {} PIM x {} policies x {} VCs (scale {})...",
        cfg.gpus.len(),
        cfg.pims.len(),
        cfg.policies.len(),
        cfg.vcs.len(),
        cfg.scale
    );
    run_competitive(cfg)
}

type Metric = fn(&CompetitivePoint) -> f64;

const FAIRNESS_THROUGHPUT: [(&str, Metric); 2] = [
    ("fairness index", |p| p.fairness),
    ("system throughput", |p| p.throughput),
];

/// The rows of a kernel × policy table: the corner cell, one `(label,
/// id)` per kernel with the key that picks a row's points, the cell
/// format, and whether a last row averages over every kernel.
struct Pivot {
    corner: &'static str,
    rows: Vec<(String, u8)>,
    key: fn(&CompetitivePoint) -> u8,
    fmt: fn(f64) -> String,
    mean_row: bool,
}

impl Pivot {
    /// One row per GPU kernel of `cfg`, labelled by `label`, in `f3`.
    fn gpus(cfg: &CompetitiveConfig, label: fn(GpuBenchmark) -> String) -> Self {
        Pivot {
            corner: "GPU kernel",
            rows: cfg.gpus.iter().map(|&g| (label(g), g.0)).collect(),
            key: |p| p.gpu.0,
            fmt: f3,
            mean_row: false,
        }
    }

    /// The table for `vc`: one column per policy of `cfg`, each cell the
    /// mean of `metric` over its row's points.
    fn table(
        &self,
        r: &CompetitiveReport,
        cfg: &CompetitiveConfig,
        vc: VcMode,
        metric: Metric,
    ) -> Table {
        let labels = cfg.policies.iter().map(|p| p.label().to_owned());
        let mut t = Table::new(
            std::iter::once(self.corner.to_owned())
                .chain(labels)
                .collect(),
        );
        let rows = self.rows.iter().map(|(l, id)| (l.clone(), Some(*id)));
        for (label, id) in rows.chain(self.mean_row.then(|| ("mean".into(), None))) {
            let cell = |&policy: &PolicyKind| {
                let pts = r.points.iter().filter(|p| p.policy == policy && p.vc == vc);
                let pts = pts.filter(|p| id.is_none_or(|id| (self.key)(p) == id));
                (self.fmt)(mean(pts.map(metric).collect()))
            };
            t.row(
                std::iter::once(label)
                    .chain(cfg.policies.iter().map(cell))
                    .collect(),
            );
        }
        t
    }
}

/// One row of a variant table: its label, the system it runs on and the
/// policies whose cells it holds.
struct Variant {
    label: String,
    system: SystemConfig,
    policies: Vec<PolicyKind>,
}

impl Variant {
    fn of(label: impl Into<String>, system: &SystemConfig, policies: &[PolicyKind]) -> Self {
        let (label, system, policies) = (label.into(), system.clone(), policies.to_vec());
        Variant {
            label,
            system,
            policies,
        }
    }
}

/// A table cell computed from a variant's sweep and its first policy.
type Extra<'a> = Option<&'a dyn Fn(&CompetitiveReport, PolicyKind) -> String>;

/// Writes a variant table under `title`: per variant, for each of its
/// policies and each VC of `sweep`, the mean fairness and mean throughput
/// over `sweep`'s kernel pairs, then `extra`'s cell. Variants on one
/// system share one sweep.
fn variant_table(
    out: &mut dyn Write,
    (title, columns): (&str, &[&str]),
    sweep: &CompetitiveConfig,
    variants: &[Variant],
    extra: Extra,
) -> Rendered {
    let mut reports: Vec<(&SystemConfig, CompetitiveReport)> = Vec::new();
    for v in variants {
        if reports.iter().any(|(s, _)| **s == v.system) {
            continue;
        }
        let mut cfg = sweep.clone();
        cfg.system = v.system.clone();
        cfg.policies.clear();
        let same = variants.iter().filter(|w| w.system == v.system);
        for &p in same.flat_map(|w| &w.policies) {
            if !cfg.policies.contains(&p) {
                cfg.policies.push(p);
            }
        }
        let shared = variants.iter().all(|w| w.system == v.system);
        reports.push((&v.system, run(&cfg, if shared { title } else { &v.label })?));
    }
    let mut t = table(columns);
    for v in variants {
        let report = &reports
            .iter()
            .find(|(s, _)| **s == v.system)
            .expect("ran")
            .1;
        let mut row = vec![v.label.clone()];
        for &policy in &v.policies {
            for &vc in &sweep.vcs {
                row.push(f3(report.mean_fairness(policy, vc)));
                row.push(f3(report.mean_throughput(policy, vc)));
            }
        }
        row.extend(extra.map(|f| f(report, v.policies[0])));
        t.row(row);
    }
    Ok(section(out, title, &t)?)
}

/// Table I: the simulation parameters, echoed from the default
/// configuration so the reproduction's settings are auditable.
pub fn table1(_: &BenchArgs, out: &mut dyn Write) -> Rendered {
    let c = SystemConfig::default();
    let (g, d, t) = (&c.gpu, &c.dram, &c.timing);
    let lines = [
        "GPU Parameters".to_owned(),
        format!("  Number of SMs: {}", g.num_sms),
        format!("  Core frequency: {} MHz", g.core_clock_mhz),
        format!("  Max outstanding MEM/SM: {}", g.max_outstanding_mem_per_sm),
        format!(
            "  Max outstanding PIM/warp: {}",
            g.max_outstanding_pim_per_warp
        ),
        "Memory Parameters".to_owned(),
        format!("  Channels/Banks: {}/{}", d.channels, d.banks),
        format!("  DRAM frequency: {} MHz", d.clock_mhz),
        format!("  Bank groups: {}", d.bank_groups),
        format!(
            "  L2 cache: {} KB total, {}-way, {} B lines",
            c.cache.total_bytes / 1024,
            c.cache.ways,
            c.cache.line_bytes
        ),
        format!(
            "  MEM-Q/PIM-Q size: {}/{} entries",
            c.mc.mem_q_entries, c.mc.pim_q_entries
        ),
        format!("  NoC buffer size: {} entries", c.noc.input_queue_entries),
        format!("  PIM FUs: {}/channel", d.pim_fus_per_channel),
        format!("  PIM RF size: {} entries", d.pim_rf_entries),
        "Timing parameters (cycles)".to_owned(),
        format!(
            "  tCCDs={} tCCDl={} tRRD={} tRCD={} tRP={}",
            t.t_ccds, t.t_ccdl, t.t_rrd, t.t_rcd, t.t_rp
        ),
        format!(
            "  tRAS={} tCL={} tWL={} tWR={} tRTPL={}",
            t.t_ras, t.t_cl, t.t_wl, t.t_wr, t.t_rtpl
        ),
        "Address map".to_owned(),
        format!("  {:?}", c.addr_map),
    ];
    header(
        out,
        "Table I: simulation parameters (SystemConfig::default())",
    )?;
    note(out, &lines.join("\n"))
}

/// Section VII-A: mode-switch logic complexity of F3FS vs. FR-FCFS.
///
/// The paper synthesizes both designs with Vitis HLS on an AMD XCZU5EV
/// FPGA (FR-FCFS: 377 LUTs / 88 FFs; F3FS: 275 LUTs / 143 FFs). We cannot
/// run an FPGA flow, so this reports the structural-complexity substitute
/// documented in DESIGN.md: element counts exposing the same trade —
/// F3FS removes per-bank conflict tracking (combinational area) and adds
/// CAP counters (state).
pub fn complexity(_: &BenchArgs, out: &mut dyn Write) -> Rendered {
    let banks = 16;
    let cap_bits = 10; // CAP values up to 1024
    let mut t = table(&[
        "design",
        "state bits (~FF)",
        "comparators",
        "reductions",
        "counters",
        "combinational score (~LUT)",
    ]);
    for c in [fr_fcfs_complexity(banks), f3fs_complexity(cap_bits)] {
        t.row(vec![
            c.name.into(),
            c.state_bits.to_string(),
            c.comparators.to_string(),
            c.reductions.to_string(),
            c.counters.to_string(),
            c.combinational_score(banks).to_string(),
        ]);
    }
    let title = "Mode-switch logic structural complexity (16 banks, 10-bit CAPs)";
    section(out, title, &t)?;
    note(
        out,
        "paper (Vitis HLS on XCZU5EV): FR-FCFS 377 LUTs / 88 FFs; F3FS 275 LUTs / 143 FFs.\n\
         Direction reproduced: F3FS needs less combinational logic and more state.",
    )
}

/// Figure 4: memory access characteristics of the Rodinia suite (80 and
/// 8 SMs) and the PIM kernels — box plots of interconnect arrival rate,
/// DRAM arrival rate, bank-level parallelism, and row-buffer hit rate.
pub fn fig4(args: &BenchArgs, out: &mut dyn Write) -> Rendered {
    let report = characterize(&args.system(), args.scale, args.budget)?;
    let (icnt, dram) = (report.icnt_boxes(), report.dram_boxes());
    for (title, boxes) in [
        (
            "4a: interconnect request arrival rate (req/kilo-GPU-cycle)",
            icnt,
        ),
        ("4b: DRAM request arrival rate (req/kilo-GPU-cycle)", dram),
        ("4c: DRAM bank-level parallelism", report.blp_boxes()),
        ("4d: DRAM row buffer hit rate", report.rbhr_boxes()),
    ] {
        header(out, &format!("Figure {title}"))?;
        writeln!(
            out,
            "population       min       q1      med       q3      max"
        )?;
        writeln!(out, "GPU-80    {}", fmt_box(boxes.gpu80))?;
        writeln!(out, "GPU-8     {}", fmt_box(boxes.gpu8))?;
        writeln!(out, "PIM       {}", fmt_box(boxes.pim))?;
    }

    // The paper's headline ratios (Section IV).
    header(out, "headline ratios (paper: PIM icnt = 3.95x GPU-8, 17.8% below GPU-80; PIM DRAM = 8.33x GPU-8, 2.07x GPU-80)")?;
    for (what, pim, base) in [
        ("PIM/GPU-8 icnt (median):  ", icnt.pim, icnt.gpu8),
        ("PIM/GPU-80 icnt (median): ", icnt.pim, icnt.gpu80),
        ("PIM/GPU-8 DRAM (median):  ", dram.pim, dram.gpu8),
        ("PIM/GPU-80 DRAM (median): ", dram.pim, dram.gpu80),
    ] {
        writeln!(out, "{what}{:.2}x", pim.median / base.median)?;
    }

    let mut t = table(&["kernel", "icnt/kcyc", "dram/kcyc", "BLP", "RBHR", "cycles"]);
    for p in report.gpu80.iter().chain(report.pim.iter()) {
        t.row(vec![
            p.label.clone(),
            format!("{:.1}", p.icnt_rate),
            format!("{:.1}", p.dram_rate),
            format!("{:.1}", p.blp),
            format!("{:.3}", p.rbhr),
            p.cycles.to_string(),
        ]);
    }
    Ok(section(out, "per-kernel profiles (GPU-80)", &t)?)
}

/// Figure 5: average speedup of the Rodinia suite on the SMs a PIM
/// kernel leaves (72 on HBM) when co-executing with four
/// memory-intensive GPU kernels vs. PIM kernel P1, normalized to
/// standalone execution on 80 SMs.
///
/// The paper's result: the suite slows by ~60% with P1 vs. a worst case
/// of ~30% with any Rodinia co-runner.
pub fn fig5(args: &BenchArgs, out: &mut dyn Write) -> Rendered {
    let system = args.system();
    let bars = run_interference(&system, args.scale, args.budget)?;
    let gpu_sms = system.coexec_gpu_sms();
    let corunner = format!("co-runner (on {} SMs)", system.pim_sms());
    let mut t = table(&[&corunner, "avg speedup"]);
    for b in &bars {
        t.row(vec![b.corunner.clone(), f3(b.avg_speedup)]);
    }
    section(out, &format!("Figure 5: average Rodinia speedup on {gpu_sms} SMs vs. co-runner (normalized to 80-SM standalone)"), &t)?;
    let none = bars.first().expect("bars").avg_speedup;
    let pim = bars.last().expect("bars").avg_speedup;
    let gpu_bars = bars[1..bars.len() - 1].iter().map(|b| b.avg_speedup);
    let worst_gpu = gpu_bars.fold(f64::INFINITY, f64::min);
    let [pim, gpu] = [pim, worst_gpu].map(|s| (1.0 - s / none) * 100.0);
    note(
        out,
        &format!("slowdown vs {gpu_sms}-SM no-contention: PIM co-runner {pim:.0}%, worst GPU co-runner {gpu:.0}%"),
    )
}

/// Figure 6: MEM request arrival rate into the memory controller under
/// co-execution, normalized to standalone execution, per GPU kernel and
/// scheduling policy, without (a) and with (b) separate MEM/PIM virtual
/// channels.
pub fn fig6(args: &BenchArgs, out: &mut dyn Write) -> Rendered {
    let cfg = args.sweep(true);
    let report = run(&cfg, "competitive sweep")?;
    let rows = Pivot {
        fmt: f2,
        mean_row: true,
        ..Pivot::gpus(&cfg, GpuBenchmark::label)
    };
    for (vc, sub) in VCS.into_iter().zip(['a', 'b']) {
        let title = format!(
            "Figure 6{sub}: normalized MEM arrival rate at the MC, {vc} (avg across PIM kernels)"
        );
        section(
            out,
            &title,
            &rows.table(&report, &cfg, vc, |p| p.mem_arrival_ratio),
        )?;
    }

    // The headline: MEM-First's improvement from VC1 to VC2 (paper: 2.87x).
    let arrival = |vc| {
        let s = report.slice(PolicyKind::MemFirst, vc);
        mean(s.iter().map(|p| p.mem_arrival_ratio).collect())
    };
    let (v1, v2) = (arrival(VcMode::Shared), arrival(VcMode::SplitPim));
    header(
        out,
        "headline (paper: MEM-First improves 2.87x, degradation 68% -> 9%)",
    )?;
    let ratio = v2 / v1;
    note(
        out,
        &format!("MEM-First mean normalized arrival rate: VC1 {v1:.2}, VC2 {v2:.2} ({ratio:.2}x)"),
    )
}

/// Figure 8: fairness index (a) and system throughput (b) for each PIM
/// kernel under every scheduling policy and VC configuration, averaged
/// across all GPU kernels.
pub fn fig8(args: &BenchArgs, out: &mut dyn Write) -> Rendered {
    let cfg = args.sweep(false);
    let report = run(&cfg, "competitive sweep")?;
    let rows = Pivot {
        corner: "PIM kernel",
        rows: cfg.pims.iter().map(|&p| (p.label(), p.0)).collect(),
        key: |p| p.pim.0,
        fmt: f3,
        mean_row: true,
    };
    for ((metric, f), sub) in FAIRNESS_THROUGHPUT.into_iter().zip(['a', 'b']) {
        for vc in VCS {
            let title = format!("Figure 8{sub}: {metric}, {vc} (avg across GPU kernels)");
            section(out, &title, &rows.table(&report, &cfg, vc, f))?;
        }
    }

    // Throughput composition (the shaded/non-shaded split of Figure 8b).
    header(
        out,
        "MEM share of system throughput (paper: FR-FCFS 41% VC1 / 45% VC2)",
    )?;
    for vc in VCS {
        for &policy in &cfg.policies {
            let pts = report.slice(policy, vc);
            let mem: f64 = pts.iter().map(|p| p.mem_speedup).sum();
            let total: f64 = pts.iter().map(|p| p.throughput).sum();
            if total > 0.0 {
                let share = mem / total * 100.0;
                writeln!(out, "{:12} {vc}: {share:.0}%", policy.label())?;
            }
        }
    }
    Ok(())
}

/// Figure 10: mode-switch behavior across all kernel combinations —
/// (a) number of mode switches normalized to FCFS (geometric mean),
/// (b) additional MEM conflicts per MEM→PIM switch (arithmetic mean),
/// (c) MEM drain latency per switch in DRAM cycles (arithmetic mean).
pub fn fig10(args: &BenchArgs, out: &mut dyn Write) -> Rendered {
    let cfg = args.sweep(true);
    let report = &run(&cfg, "competitive sweep")?;
    let per_switch = |metric: Metric| {
        move |policy, vc| {
            f2(mean(
                report.slice(policy, vc).into_iter().map(metric).collect(),
            ))
        }
    };
    type Cell<'a> = &'a dyn Fn(PolicyKind, VcMode) -> String;
    let panels: [(&str, Cell); 3] = [
        (
            "10a: mode switches normalized to FCFS (geomean across combinations)",
            &|policy, vc| report.switches_vs_fcfs(policy, vc).map_or("-".into(), f3),
        ),
        (
            "10b: additional MEM conflicts per MEM->PIM switch (mean)",
            &per_switch(|p| p.conflicts_per_switch),
        ),
        (
            "10c: MEM drain latency per switch, DRAM cycles (mean)",
            &per_switch(|p| p.drain_per_switch),
        ),
    ];
    for (title, cell) in panels {
        let mut t = table(&["policy", "VC1", "VC2"]);
        for &policy in &cfg.policies {
            t.row(vec![
                policy.label().into(),
                cell(policy, VCS[0]),
                cell(policy, VCS[1]),
            ]);
        }
        section(out, &format!("Figure {title}"), &t)?;
    }
    Ok(())
}

/// Figure 11: LLM (QKV generation + multi-head attention) speedup under
/// each policy with both VC configurations, normalized to sequential
/// execution, against the ideal perfect-overlap bound. A run that
/// overruns the budget scores the sequential time over the budget.
pub fn fig11(args: &BenchArgs, out: &mut dyn Write) -> Rendered {
    let (scale, budget) = (args.scale, args.budget);
    let r = run_collaborative(&args.system(), Scenario::Llm, scale, budget, llm_settings())?;
    let overrun = (r.gpu_alone + r.pim_alone) as f64 / budget as f64;
    header(out, "Figure 11: LLM speedup over sequential execution")?;
    writeln!(
        out,
        "QKV alone: {} cycles, MHA alone: {} cycles, ideal speedup: {:.3}\n",
        r.gpu_alone, r.pim_alone, r.ideal
    )?;
    // `llm_settings` lists every policy under VC1, then again under VC2.
    let (vc1, vc2) = r.points.split_at(r.points.len() / 2);
    let mut t = table(&["policy", "VC1", "VC2"]);
    let cell = |p: &CollabPoint| f3(p.speedup.unwrap_or(overrun));
    for (a, b) in vc1.iter().zip(vc2) {
        t.row(vec![a.policy.label().into(), cell(a), cell(b)]);
    }
    t.row(vec!["Ideal".into(), f3(r.ideal), f3(r.ideal)]);
    writeln!(out, "{}", t.render())?;
    note(
        out,
        "(paper: VC1 policies struggle, G&I works best; VC2 lets FR-FCFS and tuned F3FS\n\
         approach the ideal; F3FS beats FR-RR-FCFS by 11.23% / 7.37% in VC1 / VC2)",
    )
}

/// Figure 13: fairness and throughput of a compute-intensive kernel (G10)
/// and four memory-intensive kernels (G6, G11, G17, G19), averaged across
/// all PIM kernels — the orthogonal slice of Figure 8.
pub fn fig13(args: &BenchArgs, out: &mut dyn Write) -> Rendered {
    let mut cfg = args.sweep(true);
    cfg.gpus = figure13_picks().to_vec();
    let report = run(&cfg, "Figure 13 slice")?;
    let rows = Pivot::gpus(&cfg, |g| g.to_string());
    for ((metric, f), sub) in FAIRNESS_THROUGHPUT.into_iter().zip(['a', 'b']) {
        for vc in VCS {
            let title = format!("Figure 13{sub}: {metric}, {vc} (avg across PIM kernels)");
            section(out, &title, &rows.table(&report, &cfg, vc, f))?;
        }
    }
    note(
        out,
        "(paper: G10 shows little variation across policies — compute-intensive kernels\n\
         tolerate memory delays; F3FS equalizes well on G19 but favors the GPU on G6/G11\n\
         and PIM on G17)",
    )
}

/// Figure 14a: ablation of F3FS's three components beyond FR-FCFS-Cap —
/// (1) CAP counts requests in the current mode instead of row hits,
/// (2) current-mode-first arbitration,
/// (3) asymmetric per-mode CAPs —
/// evaluated on P2 (Stream Copy) across all GPU kernels plus the LLM,
/// under the VC2 configuration. An LLM run that overruns the budget
/// prints `-`.
pub fn fig14a(args: &BenchArgs, out: &mut dyn Write) -> Rendered {
    let system = args.system();
    let stages = [
        ("FR-FCFS-Cap (cap=32 hits)", spec("fr-fcfs-cap:cap=32")),
        (
            "+ cap on mode requests",
            spec("f3fs-no-mode-first:mem-cap=32,pim-cap=32"),
        ),
        ("+ current mode first", spec("f3fs:mem-cap=32,pim-cap=32")),
        (
            "+ asymmetric caps (32/16)",
            spec("f3fs:mem-cap=32,pim-cap=16"),
        ),
    ];
    let settings = stages.iter().map(|&(_, p)| (p, VcMode::SplitPim)).collect();
    let llm = run_collaborative(&system, Scenario::Llm, args.scale, args.budget, settings)?;
    let llm_cell = |_: &CompetitiveReport, policy: PolicyKind| {
        let point = llm.points.iter().find(|p| p.policy == policy).expect("ran");
        point.speedup.map_or("-".to_owned(), f3)
    };
    let variants = stages.map(|(label, policy)| Variant::of(label, &system, &[policy]));
    let mut cfg = args.sweep(false);
    (cfg.pims, cfg.vcs) = (pims(&[2]), vec![VcMode::SplitPim]);
    let title = "Figure 14a: F3FS component ablation (VC2)";
    let columns = ["stage", "P2 fairness", "P2 throughput", "LLM speedup"];
    variant_table(out, (title, &columns), &cfg, &variants, Some(&llm_cell))?;
    note(
        out,
        "(paper: moving the CAP to mode requests raises P2 fairness 0.73 -> 0.80 and costs\n\
         the LLM 4%; mode-first adds throughput at the same fairness; asymmetry trades\n\
         competitive fairness for +10% LLM speedup)",
    )
}

/// Figure 14b: F3FS's sensitivity to the interconnect queue size under
/// the VC2 configuration — fairness index and system throughput with the
/// input buffers at half (256), baseline (512), and double (1024) size.
pub fn fig14b(args: &BenchArgs, out: &mut dyn Write) -> Rendered {
    let variants = [256, 512, 1024].map(|queue| {
        let mut system = args.system();
        system.noc.input_queue_entries = queue;
        Variant::of(
            queue.to_string(),
            &system,
            &[PolicyKind::f3fs_competitive()],
        )
    });
    let mut cfg = args.sweep(true);
    cfg.vcs = vec![VcMode::SplitPim];
    let title = "Figure 14b: F3FS sensitivity to interconnect queue size (VC2)";
    let columns = ["queue size", "fairness index", "system throughput"];
    variant_table(out, (title, &columns), &cfg, &variants, None)?;
    note(
        out,
        "(paper: F3FS is largely agnostic to the interconnect queue size)",
    )
}

/// F3FS CAP sensitivity study (the paper's Section VII-B methodology:
/// "empirically set ... strategically a multiple of the PIM RF size").
///
/// Sweeps symmetric competitive CAPs and asymmetric splits over a
/// representative kernel subset, reporting fairness and throughput — the
/// study that selected this reproduction's default CAP of 32.
pub fn cap_sweep(args: &BenchArgs, out: &mut dyn Write) -> Rendered {
    let system = args.system();
    let caps = [
        (8, 8),
        (16, 16),
        (32, 32),
        (64, 64),
        (128, 128),
        (256, 256),
        (32, 16),
        (64, 32),
        (16, 32),
        (32, 64),
    ];
    let variants = caps.map(|(m, p)| {
        let policy = spec(&format!("f3fs:mem-cap={m},pim-cap={p}"));
        Variant::of(format!("{m}/{p}"), &system, &[policy])
    });
    let mut cfg = args.sweep(true);
    cfg.gpus = quick_gpus();
    let title = "F3FS CAP sensitivity (competitive)";
    let columns = [
        "MEM/PIM cap",
        "VC1 fairness",
        "VC1 throughput",
        "VC2 fairness",
        "VC2 throughput",
    ];
    variant_table(out, (title, &columns), &cfg, &variants, None)?;
    note(
        out,
        "(paper: competitive fairness favors symmetric CAPs; throughput favors higher\n\
         ones; asymmetry trades competitive fairness for collaborative speedup)",
    )
}

/// Parameter sweeps for the baseline policies, mirroring the paper's
/// tuning notes:
///
/// * BLISS blacklist threshold ("BLISS performs best with a lower
///   threshold, indicating its tendency to converge toward FR-FCFS");
/// * G&I high/low watermarks (paper: 56/32);
/// * FR-FCFS-Cap row-hit cap (paper: 32).
///
/// Sweep points come from registry spec strings, so this never names
/// `PolicyKind` variants directly.
pub fn policy_params(args: &BenchArgs, out: &mut dyn Write) -> Rendered {
    let system = args.system();
    let point = |label: String, s: String| Variant::of(label, &system, &[spec(&s)]);
    let sweeps: [(&str, Vec<Variant>); 3] = [
        (
            "BLISS blacklist-threshold sweep (VC1)",
            [1, 2, 4, 8, 16]
                .map(|th| point(format!("threshold {th}"), format!("bliss:threshold={th}")))
                .into(),
        ),
        (
            "G&I watermark sweep (VC1)",
            [(24, 8), (40, 16), (56, 32), (60, 48)]
                .map(|(hi, lo)| {
                    point(
                        format!("high {hi} / low {lo}"),
                        format!("gi:high={hi},low={lo}"),
                    )
                })
                .into(),
        ),
        (
            "FR-FCFS-Cap row-hit-cap sweep (VC1)",
            [4, 8, 16, 32, 64, 128]
                .map(|cap| point(format!("cap {cap}"), format!("fr-fcfs-cap:cap={cap}")))
                .into(),
        ),
    ];
    let cfg = pairs_vc1(args, &[4, 8, 11, 17], &[1, 2, 4, 7]);
    for (title, variants) in sweeps {
        let columns = ["setting", "fairness", "throughput"];
        variant_table(out, (title, &columns), &cfg, &variants, None)?;
    }
    Ok(())
}

/// A VC1 sweep over the given GPU and PIM kernels.
fn pairs_vc1(args: &BenchArgs, gpu_ids: &[u8], pim_ids: &[u8]) -> CompetitiveConfig {
    let mut cfg = args.sweep(false);
    (cfg.gpus, cfg.pims, cfg.vcs) = (gpus(gpu_ids), pims(pim_ids), vec![VcMode::Shared]);
    cfg
}

/// FR-FCFS against F3FS on each system of `variants`, over `cfg`'s
/// kernel pairs.
fn ablation(
    out: &mut dyn Write,
    (title, corner): (&str, &str),
    variants: Vec<(&str, SystemConfig)>,
    cfg: &CompetitiveConfig,
) -> Rendered {
    let policies = [PolicyKind::FrFcfs, PolicyKind::f3fs_competitive()];
    let variants: Vec<Variant> = variants
        .into_iter()
        .map(|(label, system)| Variant::of(label, &system, &policies))
        .collect();
    let columns = [corner, "FR-FCFS FI", "FR-FCFS ST", "F3FS FI", "F3FS ST"];
    variant_table(out, (title, &columns), cfg, &variants, None)
}

/// DRAM-fidelity ablation: impact of the timing constraints Table I omits
/// (tFAW, tWTR, refresh) on the headline co-execution metrics, verifying
/// that the paper's simplified timing set does not change the story.
pub fn fidelity(args: &BenchArgs, out: &mut dyn Write) -> Rendered {
    let with = |extend: fn(&mut DramTiming)| {
        let mut system = args.system();
        system.timing = DramTiming::default();
        extend(&mut system.timing);
        system
    };
    let variants = vec![
        ("Table I (paper)", with(|_| {})),
        ("+ tFAW=16", with(|t| t.t_faw = 16)),
        ("+ tWTR=4", with(|t| t.t_wtr = 4)),
        (
            "+ refresh (tREFI=3328, tRFC=298)",
            with(|t| (t.t_refi, t.t_rfc) = (3328, 298)),
        ),
        (
            "all extensions",
            with(|t| *t = DramTiming::with_fidelity_extensions()),
        ),
    ];
    let title = "DRAM fidelity ablation: F3FS + FR-FCFS under VC1";
    let cfg = pairs_vc1(args, &[8, 11, 17], &[1, 4]);
    ablation(out, (title, "timing"), variants, &cfg)?;
    note(
        out,
        "(expectation: the omitted constraints shave a few percent of throughput but do\n\
         not reorder the policies — supporting the paper's simplified timing set)",
    )
}

/// Row-buffer management ablation: open-page (the paper's implicit
/// policy, which FR-FCFS and F3FS exploit for locality) vs. closed-page
/// (auto-precharge after every MEM access).
///
/// Expectation: closed-page removes the row hits the first-ready policies
/// feed on, hurting high-RBHR kernels most, and flattens the difference
/// between FR-FCFS and FCFS-like behavior.
pub fn page_policy(args: &BenchArgs, out: &mut dyn Write) -> Rendered {
    let with = |page_policy| {
        let mut system = args.system();
        system.mc.page_policy = page_policy;
        system
    };
    let variants = vec![
        ("open-page", with(PagePolicy::Open)),
        ("closed-page", with(PagePolicy::Closed)),
    ];
    let title = "Row-buffer policy ablation: open-page vs closed-page (VC1)";
    let cfg = pairs_vc1(args, &[8, 17, 19], &[1, 4]);
    ablation(out, (title, "page policy"), variants, &cfg)?;
    note(
        out,
        "(closed-page auto-precharges after every MEM access: the high-RBHR kernels lose\n\
         their open-row stream and MEM throughput drops — the paper's open-page choice)",
    )
}

/// SMS suitability study (related-work claim): the paper argues SMS's
/// batch-granularity scheduling is unsuitable for host/PIM co-scheduling
/// because CPU/GPU batches can run on different banks in parallel, but
/// host/PIM batches are mutually exclusive. With SMS-lite implemented,
/// the claim becomes measurable: SMS must trail F3FS (and FR-FCFS) on
/// throughput because every batch boundary is a full mode switch.
pub fn sms_study(args: &BenchArgs, out: &mut dyn Write) -> Rendered {
    let system = args.system();
    let variants = [
        ("SMS (batch 8)", "sms:batch-cap=8,sjf-percent=90"),
        ("SMS (batch 16)", "sms:batch-cap=16,sjf-percent=90"),
        ("SMS (batch 32)", "sms:batch-cap=32,sjf-percent=90"),
        ("SMS (batch 32, RR)", "sms:batch-cap=32,sjf-percent=0"),
        ("FR-FCFS", "fr-fcfs"),
        ("FR-RR-FCFS", "fr-rr-fcfs"),
        ("F3FS", "f3fs:mem-cap=32,pim-cap=32"),
    ]
    .map(|(label, s)| Variant::of(label, &system, &[spec(s)]));
    let mut cfg = args.sweep(false);
    (cfg.gpus, cfg.pims) = (gpus(&[4, 8, 11, 17]), pims(&[1, 2, 4, 7]));
    let switches = |report: &CompetitiveReport, policy| -> f64 {
        let s = report.slice(policy, VcMode::Shared);
        s.iter().map(|p| p.switches as f64).sum()
    };
    let vs_f3fs = |report: &CompetitiveReport, policy| {
        let f3fs = switches(report, PolicyKind::f3fs_competitive()).max(1.0);
        f3(switches(report, policy) / f3fs)
    };
    let title = "SMS-lite vs. the PIM-aware policies";
    let columns = [
        "policy",
        "VC1 fairness",
        "VC1 throughput",
        "VC2 fairness",
        "VC2 throughput",
        "switches vs FCFS-less F3FS",
    ];
    variant_table(out, (title, &columns), &cfg, &variants, Some(&vs_f3fs))?;
    note(
        out,
        "(claim check: every batch boundary is a mode switch for SMS, so it switches\n\
         several times more often than F3FS and pays the drain + locality cost each\n\
         time — trailing every PIM-aware policy on throughput)",
    )
}

/// Address-mapping study: the Table I bit-sliced mapping vs. I-poly-style
/// pseudo-random channel hashing.
///
/// The paper turns I-poly *off* to make PIM programmable (each warp must
/// own one channel). This study quantifies what that choice costs the
/// regular GPU kernels: I-poly spreads pathological strides across
/// channels, so some kernels lose performance under the regular mapping.
pub fn mapping_study(args: &BenchArgs, out: &mut dyn Write) -> Rendered {
    let kernels = if args.quick {
        gpus(&[3, 6, 11, 15, 17])
    } else {
        GpuBenchmark::all()
    };
    let jobs: Vec<(GpuBenchmark, bool)> = kernels
        .iter()
        .flat_map(|&g| [(g, false), (g, true)])
        .collect();
    let system = args.system();
    let results = parallel_map(jobs, |(g, ipoly)| {
        let mut sys = system.clone();
        if ipoly {
            sys.addr_map = AddressMapConfig::IPolyHash;
        }
        let mut runner = Runner::new(sys, PolicyKind::FrFcfs);
        runner.max_gpu_cycles = args.budget * 4;
        let out = runner.standalone(Box::new(gpu_kernel(g, 80, args.scale)), 0, false)?;
        Ok((out.cycles, out.mc.avg_blp().unwrap_or(0.0)))
    });
    let results: Vec<(u64, f64)> = results
        .into_iter()
        .collect::<Result<_, CycleBudgetExceeded>>()?;

    let mut t = table(&[
        "kernel",
        "TableI cycles",
        "I-poly cycles",
        "I-poly speedup",
        "TableI BLP",
        "I-poly BLP",
    ]);
    for (g, pair) in kernels.iter().zip(results.chunks(2)) {
        let [(c0, b0), (c1, b1)] = [pair[0], pair[1]];
        let speedup = f2(c0 as f64 / c1 as f64);
        t.row(vec![
            g.to_string(),
            c0.to_string(),
            c1.to_string(),
            speedup,
            f2(b0),
            f2(b1),
        ]);
    }
    section(
        out,
        "GPU-80 standalone: Table I bit-sliced mapping vs. I-poly hashing",
        &t,
    )?;
    note(
        out,
        "(the paper accepts the regular mapping's cost because PIM's warp-to-channel\n\
         mapping requires it; a speedup above 1.00 means I-poly would have helped)",
    )
}

/// The FFT collaborative scenario (extension): transpose/twiddle on the
/// GPU overlapped with row-wise butterfly passes on PIM. Here the *PIM*
/// stage is the longer kernel — the mirror image of the LLM — so the
/// policy ranking flips: MEM-favoring behavior wastes the critical path
/// and PIM-favoring behavior approaches the ideal. A run that overruns
/// the budget scores 0.
pub fn collab_fft(args: &BenchArgs, out: &mut dyn Write) -> Rendered {
    // F3FS favoring the slower (PIM) kernel this time: asymmetric 16/32.
    let favor_pim = spec("f3fs:mem-cap=16,pim-cap=32");
    let mut policies = PolicyKind::baselines();
    policies.extend([PolicyKind::f3fs_competitive(), favor_pim]);
    let settings = policies
        .iter()
        .flat_map(|&p| VCS.map(|vc| (p, vc)))
        .collect();
    let (scale, budget) = (args.scale, args.budget);
    let r = run_collaborative(&args.system(), Scenario::Fft, scale, budget, settings)?;

    header(out, "FFT collaborative scenario (PIM is the longer stage)")?;
    writeln!(
        out,
        "transpose alone: {} cycles, butterflies alone: {} cycles, ideal {:.3}\n",
        r.gpu_alone, r.pim_alone, r.ideal
    )?;
    let mut t = table(&["policy", "VC1", "VC2"]);
    let cell = |p: &CollabPoint| f3(p.speedup.unwrap_or(0.0));
    for (&policy, vcs) in policies.iter().zip(r.points.chunks(2)) {
        let label = match policy {
            p if p == favor_pim => "F3FS (16/32, favor PIM)",
            PolicyKind::F3fs { .. } => "F3FS (32/32)",
            other => other.label(),
        };
        t.row(vec![label.into(), cell(&vcs[0]), cell(&vcs[1])]);
    }
    t.row(vec!["Ideal".into(), f3(r.ideal), f3(r.ideal)]);
    writeln!(out, "{}", t.render())?;
    note(
        out,
        "(mirror of Figure 11: with PIM on the critical path, PIM-favoring policies win\n\
         and the F3FS asymmetry points the other way)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_box_renders_five_numbers() {
        let s = fmt_box(FiveNumber {
            min: 1.0,
            q1: 2.0,
            median: 3.0,
            q3: 4.0,
            max: 5.0,
        });
        assert_eq!(s, "    1.00     2.00     3.00     4.00     5.00");
    }
}
