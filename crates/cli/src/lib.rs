//! Command parsing and execution for the `pimsim` command-line driver.
//!
//! The CLI runs individual simulations without writing any Rust:
//!
//! ```sh
//! pimsim list
//! pimsim standalone --gpu G4 --sms 80 --scale 0.3
//! pimsim standalone --pim P1 --scale 0.3
//! pimsim coexec --gpu G11 --pim P4 --policy f3fs --mem-cap 32 --pim-cap 32 --vc 2
//! pimsim collab --policy fr-fcfs --scale 0.3
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{self, Write};

use pimsim_core::PolicyKind;
use pimsim_sim::experiments::collaborative::Scenario;
use pimsim_sim::Runner;
use pimsim_types::{DramBackendKind, SystemConfig, VcMode};
use pimsim_workloads::{gpu_kernel, pim_kernel, pim_suite::PimBenchmark, rodinia::GpuBenchmark};

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List available kernels and policies.
    List,
    /// Run one kernel alone.
    Standalone(RunOpts),
    /// Competitive co-execution: the PIM kernel on one SM per
    /// `pim_warps_per_sm` channels, the GPU kernel on the rest (8 and 72
    /// on HBM).
    Coexec(RunOpts),
    /// Collaborative LLM scenario.
    Collab(RunOpts),
}

/// Options shared by the run subcommands.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOpts {
    /// GPU benchmark (e.g. `G4`), if any.
    pub gpu: Option<GpuBenchmark>,
    /// PIM benchmark (e.g. `P1`), if any.
    pub pim: Option<PimBenchmark>,
    /// SMs for a standalone GPU kernel.
    pub sms: usize,
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// DRAM backend (substrate), resolved through the backend registry.
    pub dram: DramBackendKind,
    /// Interconnect configuration.
    pub vc: VcMode,
    /// Workload scale.
    pub scale: f64,
    /// GPU-cycle budget.
    pub budget: u64,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            gpu: None,
            pim: None,
            sms: 80,
            policy: PolicyKind::f3fs_competitive(),
            dram: DramBackendKind::default(),
            vc: VcMode::Shared,
            scale: 0.2,
            budget: 4_000_000,
        }
    }
}

/// Error produced while parsing arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCliError(pub String);

impl std::fmt::Display for ParseCliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseCliError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseCliError> {
    Err(ParseCliError(msg.into()))
}

/// Parses a benchmark label like `G4` or `g12`.
pub fn parse_gpu(s: &str) -> Result<GpuBenchmark, ParseCliError> {
    let upper = s.to_ascii_uppercase();
    let n: u8 = upper
        .strip_prefix('G')
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ParseCliError(format!("invalid GPU benchmark: {s} (expected G1..G20)")))?;
    if (1..=20).contains(&n) {
        Ok(GpuBenchmark(n))
    } else {
        err(format!("GPU benchmark out of range: {s}"))
    }
}

/// Parses a benchmark label like `P1`.
pub fn parse_pim(s: &str) -> Result<PimBenchmark, ParseCliError> {
    let upper = s.to_ascii_uppercase();
    let n: u8 = upper
        .strip_prefix('P')
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ParseCliError(format!("invalid PIM benchmark: {s} (expected P1..P9)")))?;
    if (1..=9).contains(&n) {
        Ok(PimBenchmark(n))
    } else {
        err(format!("PIM benchmark out of range: {s}"))
    }
}

/// Parses a policy spec — a registered name, optionally followed by
/// `:key=value,...` parameters — by delegating to the policy registry
/// ([`PolicyKind::parse_spec`]). `--mem-cap`/`--pim-cap` flags are
/// applied on top later via [`PolicyKind::apply_param`].
pub fn parse_policy(s: &str) -> Result<PolicyKind, ParseCliError> {
    PolicyKind::parse_spec(s).map_err(|e| ParseCliError(e.0))
}

/// Parses a DRAM backend spec — a registered name, optionally followed by
/// `:key=value,...` parameters — by delegating to the backend registry
/// ([`pimsim_dram::backend::parse_spec`]).
pub fn parse_dram(s: &str) -> Result<DramBackendKind, ParseCliError> {
    pimsim_dram::backend::parse_spec(s).map_err(|e| ParseCliError(e.0))
}

/// Parses the full argument list (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, ParseCliError> {
    let Some((sub, rest)) = args.split_first() else {
        return err("missing subcommand");
    };
    match sub.as_str() {
        "list" => Ok(Command::List),
        "standalone" | "coexec" | "collab" => {
            let mut opts = RunOpts::default();
            let mut sms_given = false;
            let mut mem_cap: Option<u64> = None;
            let mut pim_cap: Option<u64> = None;
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<String, ParseCliError> {
                    it.next()
                        .cloned()
                        .ok_or_else(|| ParseCliError(format!("{name} needs a value")))
                };
                match flag.as_str() {
                    "--gpu" => opts.gpu = Some(parse_gpu(&value("--gpu")?)?),
                    "--pim" => opts.pim = Some(parse_pim(&value("--pim")?)?),
                    "--sms" => {
                        opts.sms = value("--sms")?
                            .parse()
                            .map_err(|_| ParseCliError("--sms needs an integer".into()))?;
                        sms_given = true;
                    }
                    "--policy" => opts.policy = parse_policy(&value("--policy")?)?,
                    "--dram" => opts.dram = parse_dram(&value("--dram")?)?,
                    "--vc" => {
                        opts.vc = match value("--vc")?.as_str() {
                            "1" | "vc1" | "VC1" => VcMode::Shared,
                            "2" | "vc2" | "VC2" => VcMode::SplitPim,
                            other => return err(format!("--vc must be 1 or 2, got {other}")),
                        }
                    }
                    "--scale" => {
                        opts.scale = value("--scale")?
                            .parse()
                            .map_err(|_| ParseCliError("--scale needs a number".into()))?
                    }
                    "--budget" => {
                        opts.budget = value("--budget")?
                            .parse()
                            .map_err(|_| ParseCliError("--budget needs an integer".into()))?
                    }
                    "--mem-cap" => {
                        mem_cap = Some(
                            value("--mem-cap")?
                                .parse()
                                .map_err(|_| ParseCliError("--mem-cap needs an integer".into()))?,
                        )
                    }
                    "--pim-cap" => {
                        pim_cap = Some(
                            value("--pim-cap")?
                                .parse()
                                .map_err(|_| ParseCliError("--pim-cap needs an integer".into()))?,
                        )
                    }
                    other => return err(format!("unknown flag: {other}")),
                }
            }
            // Each subcommand's kernels, and a flag it would ignore.
            match sub.as_str() {
                "standalone" if opts.gpu.is_some() == opts.pim.is_some() => {
                    return err("standalone needs exactly one of --gpu or --pim");
                }
                "coexec" if opts.gpu.is_none() || opts.pim.is_none() => {
                    return err("coexec needs both --gpu and --pim");
                }
                "collab" if opts.gpu.is_some() => {
                    return err("collab takes no --gpu: it runs the fixed LLM scenario");
                }
                "collab" if opts.pim.is_some() => {
                    return err("collab takes no --pim: it runs the fixed LLM scenario");
                }
                _ => {}
            }
            if sms_given && (sub != "standalone" || opts.pim.is_some()) {
                let fixed = if sub == "standalone" {
                    "a PIM kernel"
                } else {
                    sub
                };
                return err(format!(
                    "--sms applies only to standalone --gpu; the SMs are fixed for {fixed}"
                ));
            }
            if !pimsim_workloads::valid_scale(opts.scale) {
                return err(format!(
                    "--scale must be finite and positive, got {}",
                    opts.scale
                ));
            }
            let num_sms = system_for(&opts).gpu.num_sms;
            if !(1..=num_sms).contains(&opts.sms) {
                return err(format!("--sms must be in 1..={num_sms}, got {}", opts.sms));
            }
            for (key, value) in [("mem-cap", mem_cap), ("pim-cap", pim_cap)] {
                if let Some(v) = value {
                    opts.policy = opts
                        .policy
                        .apply_param(key, v)
                        .map_err(|e| ParseCliError(format!("--{key}: {e}")))?;
                }
            }
            Ok(match sub.as_str() {
                "standalone" => Command::Standalone(opts),
                "coexec" => Command::Coexec(opts),
                _ => Command::Collab(opts),
            })
        }
        other => err(format!("unknown subcommand: {other}")),
    }
}

/// Usage text.
pub const USAGE: &str = "usage:
  pimsim list
  pimsim standalone (--gpu G<n> [--sms N] | --pim P<n>) [common flags]
  pimsim coexec --gpu G<n> --pim P<n> [common flags]
  pimsim collab [common flags]
common flags:
  --policy <name[:key=value,...]>   (`pimsim list` prints every name)
  --dram <name[:key=value,...]>     (DRAM backend, e.g. hbm, lp5x:ranks=4)
  --mem-cap N --pim-cap N           (f3fs variants only)
  --vc <1|2>  --scale F  --budget N";

fn system_for(opts: &RunOpts) -> SystemConfig {
    let mut system = SystemConfig::default();
    pimsim_dram::backend::configure(opts.dram, &mut system);
    system.noc.vc_mode = opts.vc;
    system
}

fn print_mc_stats(out: &mut impl Write, mc: &pimsim_core::McStats) -> io::Result<()> {
    writeln!(out, "memory controller:")?;
    writeln!(
        out,
        "  served: {} MEM / {} PIM; switches: {} ({} MEM->PIM)",
        mc.mem_served, mc.pim_served, mc.switches, mc.switches_mem_to_pim
    )?;
    if let Some(r) = mc.mem_rbhr() {
        writeln!(out, "  MEM row-buffer hit rate: {:.1}%", r * 100.0)?;
    }
    if let Some(r) = mc.pim_rbhr() {
        writeln!(out, "  PIM row-buffer hit rate: {:.1}%", r * 100.0)?;
    }
    if let Some(b) = mc.avg_blp() {
        writeln!(out, "  avg bank-level parallelism: {b:.1}")?;
    }
    for (label, h) in [("MEM", &mc.mem_latency), ("PIM", &mc.pim_latency)] {
        if h.count() > 0 {
            writeln!(
                out,
                "  {label} latency (DRAM cycles): mean {:.0}, p50 {}, p99 {}, max {}",
                h.mean().unwrap_or(0.0),
                h.quantile(0.5).unwrap_or(0),
                h.quantile(0.99).unwrap_or(0),
                h.max()
            )?;
        }
    }
    Ok(())
}

/// Executes a parsed command, writing its report to `out` (runtime
/// errors go to stderr). Returns a process exit code: 0 on success, 1 on
/// a runtime error. A reader that closes `out` early (`pimsim list |
/// head -1`) ends the command normally, with exit code 0.
pub fn run(cmd: Command, out: &mut impl Write) -> i32 {
    match execute(cmd, out).and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => 0,
        Err(e) => {
            eprintln!("error: writing output: {e}");
            1
        }
    }
}

fn execute(cmd: Command, out: &mut impl Write) -> io::Result<i32> {
    Ok(match cmd {
        Command::List => {
            writeln!(out, "GPU benchmarks (Table II):")?;
            for b in GpuBenchmark::all() {
                writeln!(out, "  {b}")?;
            }
            writeln!(out, "PIM benchmarks (Table III):")?;
            for b in PimBenchmark::all() {
                writeln!(out, "  {b}")?;
            }
            writeln!(out, "policies (--policy <name[:key=value,...]>):")?;
            for d in pimsim_core::policy::registry::descriptors() {
                writeln!(out, "  {:<20} {}", d.name, d.summary)?;
                if !d.aliases.is_empty() {
                    writeln!(out, "  {:<20}   aliases: {}", "", d.aliases.join(", "))?;
                }
                for p in d.params {
                    writeln!(out, "  {:<20}   {}: {}", "", p.key, p.help)?;
                }
            }
            writeln!(out, "DRAM backends (--dram <name[:key=value,...]>):")?;
            for d in pimsim_dram::backend::descriptors() {
                writeln!(out, "  {:<20} {}", d.name, d.summary)?;
                if !d.aliases.is_empty() {
                    writeln!(out, "  {:<20}   aliases: {}", "", d.aliases.join(", "))?;
                }
                for p in d.params {
                    writeln!(out, "  {:<20}   {}: {}", "", p.key, p.help)?;
                }
            }
            0
        }
        Command::Standalone(opts) => {
            let system = system_for(&opts);
            let outstanding = system.gpu.max_outstanding_pim_per_warp as u32;
            let channels = system.dram.channels;
            let warps = system.gpu.pim_warps_per_sm;
            let mut runner = Runner::new(system, opts.policy);
            runner.max_gpu_cycles = opts.budget;
            let result = if let Some(g) = opts.gpu {
                writeln!(
                    out,
                    "standalone {g} on {} SMs (scale {})",
                    opts.sms, opts.scale
                )?;
                runner.standalone(Box::new(gpu_kernel(g, opts.sms, opts.scale)), 0, false)
            } else {
                let p = opts.pim.expect("validated");
                writeln!(
                    out,
                    "standalone {p} on {} SMs (scale {})",
                    channels / warps,
                    opts.scale
                )?;
                runner.standalone(
                    Box::new(pim_kernel(p, channels, warps, outstanding, opts.scale)),
                    0,
                    true,
                )
            };
            match result {
                Ok(o) => {
                    writeln!(
                        out,
                        "execution time: {} GPU cycles; icnt rate {:.1}/kcyc, DRAM rate {:.1}/kcyc",
                        o.cycles,
                        o.icnt_rate(),
                        o.dram_rate()
                    )?;
                    print_mc_stats(out, &o.mc)?;
                    0
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            }
        }
        Command::Coexec(opts) => {
            let g = opts.gpu.expect("validated");
            let p = opts.pim.expect("validated");
            let system = system_for(&opts);
            let outstanding = system.gpu.max_outstanding_pim_per_warp as u32;
            let channels = system.dram.channels;
            let warps = system.gpu.pim_warps_per_sm;
            let gpu_sms = system.coexec_gpu_sms();
            writeln!(
                out,
                "coexec {g} ({gpu_sms} SMs) + {p} ({} SMs), {} under {} (scale {})",
                system.pim_sms(),
                opts.vc,
                opts.policy,
                opts.scale
            )?;
            // Standalone baselines for the metrics.
            let solo = Runner::new(system_for(&opts), PolicyKind::FrFcfs);
            let ga = match solo.standalone(Box::new(gpu_kernel(g, 80, opts.scale)), 0, false) {
                Ok(o) => o.cycles,
                Err(e) => {
                    eprintln!("error: GPU baseline: {e}");
                    return Ok(1);
                }
            };
            let pa = match solo.standalone(
                Box::new(pim_kernel(p, channels, warps, outstanding, opts.scale)),
                0,
                true,
            ) {
                Ok(o) => o.cycles,
                Err(e) => {
                    eprintln!("error: PIM baseline: {e}");
                    return Ok(1);
                }
            };
            let mut runner = Runner::new(system, opts.policy);
            runner.max_gpu_cycles = opts.budget;
            let o = runner.coexec(
                Box::new(gpu_kernel(g, gpu_sms, opts.scale)),
                Box::new(pim_kernel(p, channels, warps, outstanding, opts.scale)),
                true,
            );
            let m = o.metrics(ga, pa);
            writeln!(
                out,
                "first runs: GPU {} cycles{}, PIM {} cycles{}",
                o.gpu_first_run,
                if o.gpu_starved { " (STARVED)" } else { "" },
                o.pim_first_run,
                if o.pim_starved { " (STARVED)" } else { "" },
            )?;
            writeln!(
                out,
                "speedups: MEM {:.3}, PIM {:.3}; fairness index {:.3}, system throughput {:.3}",
                m.mem_speedup,
                m.pim_speedup,
                m.fairness_index(),
                m.system_throughput()
            )?;
            print_mc_stats(out, &o.mc)?;
            0
        }
        Command::Collab(opts) => {
            let system = system_for(&opts);
            writeln!(
                out,
                "collaborative LLM (QKV + MHA), {} under {} (scale {})",
                opts.vc, opts.policy, opts.scale
            )?;
            let solo = Runner::new(system_for(&opts), PolicyKind::FrFcfs);
            let (qkv, _) = Scenario::Llm.kernels(&system, opts.scale);
            let qa = match solo.standalone(qkv, system.pim_sms(), false) {
                Ok(o) => o.cycles,
                Err(e) => {
                    eprintln!("error: QKV baseline: {e}");
                    return Ok(1);
                }
            };
            let (_, mha) = Scenario::Llm.kernels(&system, opts.scale);
            let ma = match solo.standalone(mha, 0, true) {
                Ok(o) => o.cycles,
                Err(e) => {
                    eprintln!("error: MHA baseline: {e}");
                    return Ok(1);
                }
            };
            let (qkv, mha) = Scenario::Llm.kernels(&system, opts.scale);
            let mut runner = Runner::new(system, opts.policy);
            runner.max_gpu_cycles = opts.budget;
            match runner.collaborative(qkv, mha) {
                Ok(o) => {
                    writeln!(
                        out,
                        "QKV alone {qa}, MHA alone {ma}, concurrent {} cycles",
                        o.concurrent_cycles
                    )?;
                    writeln!(
                        out,
                        "speedup vs sequential: {:.3} (ideal {:.3})",
                        o.speedup(qa, ma),
                        pimsim_sim::CollabOutcome::ideal_speedup(qa, ma)
                    )?;
                    print_mc_stats(out, &o.mc)?;
                    0
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_list() {
        assert_eq!(parse_args(&args("list")).unwrap(), Command::List);
    }

    #[test]
    fn parses_standalone_gpu() {
        let cmd = parse_args(&args("standalone --gpu G4 --sms 40 --scale 0.5")).unwrap();
        let Command::Standalone(o) = cmd else {
            panic!("wrong subcommand")
        };
        assert_eq!(o.gpu, Some(GpuBenchmark(4)));
        assert_eq!(o.sms, 40);
        assert_eq!(o.scale, 0.5);
    }

    #[test]
    fn parses_coexec_with_caps() {
        let cmd = parse_args(&args(
            "coexec --gpu g11 --pim p4 --policy f3fs --mem-cap 64 --pim-cap 16 --vc 2",
        ))
        .unwrap();
        let Command::Coexec(o) = cmd else {
            panic!("wrong subcommand")
        };
        assert_eq!(
            o.policy,
            PolicyKind::F3fs {
                mem_cap: 64,
                pim_cap: 16
            }
        );
        assert_eq!(o.vc, VcMode::SplitPim);
    }

    #[test]
    fn rejects_caps_on_non_f3fs() {
        let e =
            parse_args(&args("coexec --gpu G1 --pim P1 --policy fcfs --mem-cap 8")).unwrap_err();
        assert!(e.0.contains("no tunable parameter"), "{e}");
    }

    #[test]
    fn parses_policy_spec_with_parameters() {
        let cmd = parse_args(&args("collab --policy bliss:threshold=8")).unwrap();
        let Command::Collab(o) = cmd else {
            panic!("wrong subcommand")
        };
        assert_eq!(
            o.policy,
            PolicyKind::Bliss {
                threshold: 8,
                clear_interval: 10_000
            }
        );
    }

    #[test]
    fn subcommand_errors_leave_the_usage_text_to_main() {
        // `main` prints `USAGE` after every parse error, so an error that
        // embedded it would print it twice.
        for argv in ["", "frob"] {
            let e = parse_args(&args(argv)).unwrap_err();
            assert!(!e.0.contains(USAGE), "{argv:?}: {e}");
        }
    }

    #[test]
    fn rejects_standalone_with_both_kernels() {
        assert!(parse_args(&args("standalone --gpu G1 --pim P1")).is_err());
        assert!(parse_args(&args("standalone")).is_err());
    }

    #[test]
    fn rejects_coexec_missing_kernel() {
        assert!(parse_args(&args("coexec --gpu G1")).is_err());
    }

    #[test]
    fn parses_every_registered_policy_name() {
        for d in pimsim_core::policy::registry::descriptors() {
            let kind = parse_policy(d.name).unwrap_or_else(|e| panic!("{}: {e}", d.name));
            assert_eq!(kind, d.default_kind());
            for alias in d.aliases {
                assert_eq!(parse_policy(alias).unwrap(), kind, "alias {alias}");
            }
        }
        assert!(parse_policy("nonsense").is_err());
    }

    #[test]
    fn rejects_bad_benchmarks() {
        assert!(parse_gpu("G21").is_err());
        assert!(parse_gpu("X2").is_err());
        assert!(parse_pim("P0").is_err());
        assert!(parse_pim("P10").is_err());
        assert!(parse_gpu("g20").is_ok());
        assert!(parse_pim("p9").is_ok());
    }

    #[test]
    fn parses_dram_backend_spec() {
        let cmd = parse_args(&args("standalone --pim P1 --dram lp5x:ranks=2")).unwrap();
        let Command::Standalone(o) = cmd else {
            panic!("wrong subcommand")
        };
        assert_eq!(o.dram, DramBackendKind::Lp5x { ranks: 2 });
        let system = system_for(&o);
        assert_eq!(system.dram.channels, 16);
        assert_eq!(system.dram_backend, o.dram);
    }

    #[test]
    fn parses_every_registered_backend_name() {
        for d in pimsim_dram::backend::descriptors() {
            let kind = parse_dram(d.name).unwrap_or_else(|e| panic!("{}: {e}", d.name));
            assert_eq!(kind, d.default_kind());
            for alias in d.aliases {
                assert_eq!(parse_dram(alias).unwrap(), kind, "alias {alias}");
            }
        }
        assert!(parse_dram("ddr9").is_err());
    }

    #[test]
    fn rejects_bad_backend_params() {
        let e = parse_args(&args("standalone --pim P1 --dram lp5x:ranks=banana")).unwrap_err();
        assert!(e.0.contains("unsigned"), "{e}");
        let e = parse_args(&args("standalone --pim P1 --dram hbm:ranks=4")).unwrap_err();
        assert!(e.0.contains("no tunable parameter"), "{e}");
    }

    #[test]
    fn rejects_sms_outside_the_gpu() {
        for sms in [0, 81] {
            let e = parse_args(&args(&format!("standalone --gpu G4 --sms {sms}"))).unwrap_err();
            assert!(e.0.contains("--sms must be in 1..=80"), "{e}");
        }
        assert!(parse_args(&args("standalone --gpu G4 --sms 1")).is_ok());
        assert!(parse_args(&args("standalone --gpu G4 --sms 80")).is_ok());
    }

    #[test]
    fn rejects_sms_where_the_subcommand_fixes_the_sms() {
        for (line, fixed) in [
            ("coexec --gpu G1 --pim P1 --sms 3", "coexec"),
            ("standalone --pim P1 --sms 3", "a PIM kernel"),
            ("collab --sms 3", "collab"),
        ] {
            let e = parse_args(&args(line)).unwrap_err();
            assert!(
                e.0.contains("--sms applies only to standalone --gpu")
                    && e.0.ends_with(&format!("fixed for {fixed}")),
                "{line}: {e}"
            );
        }
    }

    #[test]
    fn rejects_kernels_on_collab() {
        for flag in ["--gpu G4", "--pim P1"] {
            let e = parse_args(&args(&format!("collab {flag}"))).unwrap_err();
            let name = flag.split_whitespace().next().unwrap();
            assert!(e.0.contains(&format!("collab takes no {name}")), "{e}");
        }
    }

    /// A reader that has gone away: every write fails with `BrokenPipe`.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(io::ErrorKind::BrokenPipe.into())
        }
    }

    #[test]
    fn a_closed_pipe_ends_the_output_normally() {
        assert_eq!(run(Command::List, &mut ClosedPipe), 0);
        let mut listing = Vec::new();
        assert_eq!(run(Command::List, &mut listing), 0);
        let listing = String::from_utf8(listing).expect("UTF-8");
        assert!(listing.starts_with("GPU benchmarks"), "{listing}");
        assert!(listing.contains("lp5x"), "{listing}");
    }

    #[test]
    fn rejects_scales_that_are_not_finite_and_positive() {
        for scale in ["nan", "inf", "-inf", "0", "-0.5"] {
            let e = parse_args(&args(&format!("standalone --pim P1 --scale {scale}"))).unwrap_err();
            assert!(e.0.contains("--scale must be finite and positive"), "{e}");
        }
    }

    #[test]
    fn rejects_unknown_flags_and_subcommands() {
        assert!(parse_args(&args("coexec --gpu G1 --pim P1 --frobnicate 3")).is_err());
        assert!(parse_args(&args("dance")).is_err());
        assert!(parse_args(&[]).is_err());
    }
}
