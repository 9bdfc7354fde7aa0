//! Golden-fixture regression matrix for the pipeline refactor.
//!
//! Records total cycles plus the merged controller stats for a
//! (policy × workload × VC mode) matrix as checked-in JSON fixtures
//! (`tests/fixtures/golden_pipeline.json`), generated at the pre-refactor
//! HEAD, and asserts the current pipeline reproduces them exactly — with
//! fast-forward both on and off. Any divergence means the component-port
//! refactor changed observable behavior.
//!
//! A second, smaller matrix pins the LPDDR5X-PIM backend
//! (`tests/fixtures/golden_lp5x.json`): the HBM fixture file stays
//! byte-identical across the multi-backend refactor while the LP5X
//! scenarios get their own golden history.
//!
//! Regenerate (only when an *intentional* behavior change lands) with:
//!
//! ```sh
//! GOLDEN_REGEN=1 cargo test --release --test golden_pipeline
//! ```

use pim_coscheduling::core::policy::PolicyKind;
use pim_coscheduling::core::McStats;
use pim_coscheduling::sim::Runner;
use pim_coscheduling::types::{SystemConfig, VcMode};
use pim_coscheduling::workloads::{
    gpu_kernel, pim_kernel, pim_suite::PimBenchmark, rodinia::GpuBenchmark,
};

const SCALE: f64 = 0.01;
const BUDGET: u64 = 20_000_000;

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_pipeline.json")
}

fn lp5x_fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_lp5x.json")
}

/// The matrix axes. Policy names are the registry's canonical spellings,
/// resolved to kinds through [`PolicyKind::parse_spec`].
const POLICIES: [&str; 3] = ["fr-fcfs", "f3fs", "mem-first"];

#[derive(Clone, Copy)]
enum Workload {
    SoloMem,
    SoloPim,
    Coexec,
    /// Reply-saturated: a MEM kernel spread over twice the SMs so the
    /// reply crossbar and per-partition reply wires stay deep — pins the
    /// stage-6 skip gate (`replies_pending` / `has_traffic`) of the
    /// event-driven completion spine.
    ReplySat,
}

const WORKLOADS: [(&str, Workload); 4] = [
    ("mem_G3", Workload::SoloMem),
    ("pim_P1", Workload::SoloPim),
    ("coexec_G8_P2", Workload::Coexec),
    ("replysat_G15", Workload::ReplySat),
];

const VC_MODES: [(&str, VcMode); 2] = [("vc1", VcMode::Shared), ("vc2", VcMode::SplitPim)];

fn runner(base: &SystemConfig, policy: PolicyKind, vc_mode: VcMode, fast_forward: bool) -> Runner {
    let mut cfg = base.clone();
    cfg.noc.vc_mode = vc_mode;
    let mut r = Runner::new(cfg, policy);
    r.max_gpu_cycles = BUDGET;
    r.fast_forward = fast_forward;
    r
}

/// Every integer-valued observable of a run, in a fixed order. Histogram
/// means are derived from these counts, so integer equality here implies
/// the distributions match too.
fn mc_fields(mc: &McStats) -> Vec<(&'static str, u64)> {
    vec![
        ("mem_arrivals", mc.mem_arrivals),
        ("pim_arrivals", mc.pim_arrivals),
        ("mem_served", mc.mem_served),
        ("pim_served", mc.pim_served),
        ("mem_row_hits", mc.mem_row_hits),
        ("mem_row_misses", mc.mem_row_misses),
        ("pim_row_hits", mc.pim_row_hits),
        ("pim_row_misses", mc.pim_row_misses),
        ("switches", mc.switches),
        ("switches_mem_to_pim", mc.switches_mem_to_pim),
        ("mem_drain_latency_sum", mc.mem_drain_latency_sum),
        ("switch_conflicts", mc.switch_conflicts),
        ("blp_sum", mc.blp_sum),
        ("active_cycles", mc.active_cycles),
        ("mem_q_occupancy_sum", mc.mem_q_occupancy_sum),
        ("pim_q_occupancy_sum", mc.pim_q_occupancy_sum),
        ("mc_cycles", mc.cycles),
        ("cycles_mem_mode", mc.cycles_mem_mode),
        ("cycles_pim_mode", mc.cycles_pim_mode),
        ("cycles_draining", mc.cycles_draining),
        ("mem_latency_count", mc.mem_latency.count()),
        ("mem_latency_max", mc.mem_latency.max()),
        ("pim_latency_count", mc.pim_latency.count()),
        ("pim_latency_max", mc.pim_latency.max()),
    ]
}

/// Runs one cell of the matrix and returns its observables.
fn run_cell(
    base: &SystemConfig,
    policy: PolicyKind,
    workload: Workload,
    vc_mode: VcMode,
    fast_forward: bool,
) -> Vec<(&'static str, u64)> {
    let r = runner(base, policy, vc_mode, fast_forward);
    let (head, mc) = match workload {
        Workload::SoloMem => {
            let out = r
                .standalone(Box::new(gpu_kernel(GpuBenchmark(3), 16, SCALE)), 0, false)
                .expect("solo MEM run finishes in budget");
            (
                vec![
                    ("total_cycles", out.cycles),
                    ("icnt_injections", out.icnt_injections),
                ],
                out.mc,
            )
        }
        Workload::SoloPim => {
            let out = r
                .standalone(
                    Box::new(pim_kernel(PimBenchmark(1), 32, 4, 256, SCALE)),
                    0,
                    true,
                )
                .expect("solo PIM run finishes in budget");
            (
                vec![
                    ("total_cycles", out.cycles),
                    ("icnt_injections", out.icnt_injections),
                ],
                out.mc,
            )
        }
        Workload::ReplySat => {
            let out = r
                .standalone(Box::new(gpu_kernel(GpuBenchmark(15), 32, SCALE)), 0, false)
                .expect("reply-saturated run finishes in budget");
            (
                vec![
                    ("total_cycles", out.cycles),
                    ("icnt_injections", out.icnt_injections),
                ],
                out.mc,
            )
        }
        Workload::Coexec => {
            let out = r.coexec(
                Box::new(gpu_kernel(GpuBenchmark(8), 16, SCALE)),
                Box::new(pim_kernel(PimBenchmark(2), 32, 4, 256, SCALE)),
                true,
            );
            (
                vec![
                    ("total_cycles", out.total_cycles),
                    ("gpu_first_run", out.gpu_first_run),
                    ("pim_first_run", out.pim_first_run),
                    ("gpu_starved", u64::from(out.gpu_starved)),
                    ("pim_starved", u64::from(out.pim_starved)),
                ],
                out.mc,
            )
        }
    };
    let mut fields = head;
    fields.extend(mc_fields(&mc));
    fields
}

/// Hand-rolled JSON writer (the workspace has no serializer).
fn to_json(records: &[(String, Vec<(&'static str, u64)>)]) -> String {
    let mut s = String::from("[\n");
    for (i, (scenario, fields)) in records.iter().enumerate() {
        s.push_str("  {\n");
        s.push_str(&format!("    \"scenario\": \"{scenario}\",\n"));
        for (j, (k, v)) in fields.iter().enumerate() {
            let comma = if j + 1 < fields.len() { "," } else { "" };
            s.push_str(&format!("    \"{k}\": {v}{comma}\n"));
        }
        s.push_str(if i + 1 < records.len() {
            "  },\n"
        } else {
            "  }\n"
        });
    }
    s.push_str("]\n");
    s
}

/// Minimal parser for the writer's output: a list of flat objects with one
/// string field (`scenario`) and integer fields.
fn parse_json(text: &str) -> Vec<(String, Vec<(String, u64)>)> {
    let mut records = Vec::new();
    for obj in text.split('{').skip(1) {
        let obj = obj.split('}').next().expect("unterminated object");
        let mut scenario = None;
        let mut fields = Vec::new();
        let mut rest = obj;
        while let Some(start) = rest.find('"') {
            let after_key = &rest[start + 1..];
            let key_end = after_key.find('"').expect("unterminated key");
            let key = &after_key[..key_end];
            let after = after_key[key_end + 1..]
                .trim_start()
                .strip_prefix(':')
                .expect("missing colon")
                .trim_start();
            if let Some(sv) = after.strip_prefix('"') {
                let end = sv.find('"').expect("unterminated string value");
                assert_eq!(key, "scenario", "unexpected string field {key}");
                scenario = Some(sv[..end].to_string());
                rest = &sv[end + 1..];
            } else {
                let end = after
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(after.len());
                let value: u64 = after[..end].parse().expect("integer field");
                fields.push((key.to_string(), value));
                rest = &after[end..];
            }
        }
        records.push((scenario.expect("object without scenario"), fields));
    }
    records
}

fn scenario_name(policy: &str, workload: &str, vc: &str) -> String {
    format!("{policy}/{workload}/{vc}")
}

fn run_matrix() -> Vec<(String, Vec<(&'static str, u64)>)> {
    let base = SystemConfig::default();
    let mut records = Vec::new();
    for pname in POLICIES {
        for (wname, workload) in WORKLOADS {
            for (vname, vc) in VC_MODES {
                let name = scenario_name(pname, wname, vname);
                let pkind = PolicyKind::parse_spec(pname).expect("registered policy");
                let on = run_cell(&base, pkind, workload, vc, true);
                let off = run_cell(&base, pkind, workload, vc, false);
                assert_eq!(on, off, "{name}: fast-forward on/off diverged");
                records.push((name, on));
            }
        }
    }
    records
}

/// The LP5X matrix is smaller (the point is backend coverage, not a second
/// full policy sweep): two policies, the three workload shapes that touch
/// both request classes, shared-VC only.
const LP5X_POLICIES: [&str; 2] = ["fr-fcfs", "f3fs"];
const LP5X_WORKLOADS: [(&str, Workload); 3] = [
    ("mem_G3", Workload::SoloMem),
    ("pim_P1", Workload::SoloPim),
    ("coexec_G8_P2", Workload::Coexec),
];

fn run_lp5x_matrix() -> Vec<(String, Vec<(&'static str, u64)>)> {
    // Resolved through the backend registry, exactly like `--dram` on the
    // CLI: no backend enum matching in this test.
    let base = {
        let kind = pim_coscheduling::dram::backend::parse_spec("lp5x:ranks=4")
            .expect("registered backend");
        pim_coscheduling::dram::backend::system_config(kind)
    };
    let mut records = Vec::new();
    for pname in LP5X_POLICIES {
        for (wname, workload) in LP5X_WORKLOADS {
            let name = format!("lp5x/{}", scenario_name(pname, wname, "vc1"));
            let pkind = PolicyKind::parse_spec(pname).expect("registered policy");
            let on = run_cell(&base, pkind, workload, VcMode::Shared, true);
            let off = run_cell(&base, pkind, workload, VcMode::Shared, false);
            assert_eq!(on, off, "{name}: fast-forward on/off diverged");
            records.push((name, on));
        }
    }
    records
}

/// Regenerates (under `GOLDEN_REGEN=1`) or verifies `records` against the
/// fixture at `path` — shared by the per-backend golden tests.
fn check_against(path: &std::path::Path, records: &[(String, Vec<(&'static str, u64)>)]) {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(path, to_json(records)).expect("write fixtures");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with GOLDEN_REGEN=1",
            path.display()
        )
    });
    let golden = parse_json(&text);
    assert_eq!(
        golden.len(),
        records.len(),
        "fixture matrix size changed; regenerate with GOLDEN_REGEN=1"
    );
    for ((gname, gfields), (name, fields)) in golden.iter().zip(records) {
        assert_eq!(gname, name, "scenario order changed");
        assert_eq!(
            gfields.len(),
            fields.len(),
            "{name}: recorded field set changed; regenerate with GOLDEN_REGEN=1"
        );
        for ((gk, gv), (k, v)) in gfields.iter().zip(fields) {
            assert_eq!(gk, k, "{name}: field order changed");
            assert_eq!(gv, v, "{name}: {k} diverged from the golden fixture");
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs the full matrix; use --release")]
fn pipeline_matches_golden_fixtures() {
    check_against(&fixture_path(), &run_matrix());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs the full matrix; use --release")]
fn lp5x_pipeline_matches_golden_fixtures() {
    check_against(&lp5x_fixture_path(), &run_lp5x_matrix());
}

/// The fixture file itself must round-trip through the parser, so a hand
/// edit that breaks the format is caught even in debug runs.
#[test]
fn fixture_file_parses_if_present() {
    for path in [fixture_path(), lp5x_fixture_path()] {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue; // not generated yet
        };
        let golden = parse_json(&text);
        assert!(
            !golden.is_empty(),
            "fixture file exists but holds no records"
        );
        for (name, fields) in &golden {
            assert!(!name.is_empty());
            assert!(
                fields.iter().any(|(k, _)| k == "total_cycles"),
                "{name}: missing total_cycles"
            );
        }
    }
}
