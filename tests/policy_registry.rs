//! Round-trips every entry of the policy registry through the layers that
//! consume it: the registry itself (name ↔ kind), the policy builder
//! (kind → `SchedulePolicy` instance), the CLI front-end, and the
//! spec-based `Runner` constructor. A policy added to the registry is
//! immediately reachable from every front-end or these tests fail.

use pim_coscheduling::core::policy::registry;
use pim_coscheduling::core::policy::PolicyKind;

#[test]
fn every_registered_policy_round_trips_name_kind_and_builder() {
    let descriptors = registry::descriptors();
    assert!(descriptors.len() >= 9, "registry lost entries");
    for d in descriptors {
        let kind = d.default_kind();
        // name → kind → name.
        assert_eq!(registry::parse_spec(d.name).unwrap(), kind, "{}", d.name);
        assert_eq!(kind.canonical_name(), d.name);
        for alias in d.aliases {
            assert_eq!(registry::parse_spec(alias).unwrap(), kind, "{alias}");
        }
        // kind → built policy instance; the instance's short name matches
        // the kind's paper label, so tables and the registry agree.
        let built = kind.build();
        assert_eq!(built.name(), kind.label(), "{}", d.name);
        // Every advertised parameter is actually tunable, and an arbitrary
        // other key is rejected.
        for p in d.params {
            let tuned = kind.apply_param(p.key, 1).unwrap_or_else(|e| {
                panic!("{}: advertised param '{}' rejected: {e}", d.name, p.key)
            });
            assert_eq!(tuned.canonical_name(), d.name, "tuning changed policy");
        }
        assert!(kind.apply_param("no-such-key", 1).is_err(), "{}", d.name);
    }
}

#[test]
fn registered_names_are_unambiguous() {
    let mut seen: Vec<String> = Vec::new();
    for d in registry::descriptors() {
        for name in std::iter::once(&d.name).chain(d.aliases) {
            let lower = name.to_ascii_lowercase();
            assert!(!seen.contains(&lower), "duplicate spelling '{name}'");
            seen.push(lower);
        }
    }
}

#[test]
fn cli_accepts_every_registered_policy_name() {
    for d in registry::descriptors() {
        for name in std::iter::once(&d.name).chain(d.aliases) {
            let args: Vec<String> = ["collab", "--policy", name]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let cmd = pimsim_cli::parse_args(&args)
                .unwrap_or_else(|e| panic!("CLI rejected registered policy '{name}': {e}"));
            let pimsim_cli::Command::Collab(opts) = cmd else {
                panic!("wrong subcommand for '{name}'")
            };
            assert_eq!(opts.policy, d.default_kind(), "{name}");
        }
    }
}

#[test]
fn runner_from_spec_matches_registry_defaults() {
    for d in registry::descriptors() {
        let r = pim_coscheduling::sim::Runner::from_spec(
            pim_coscheduling::types::SystemConfig::default(),
            d.name,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", d.name));
        assert_eq!(r.policy, d.default_kind());
    }
    assert_eq!(
        PolicyKind::parse_spec("f3fs:mem-cap=64,pim-cap=16").unwrap(),
        PolicyKind::F3fs {
            mem_cap: 64,
            pim_cap: 16
        }
    );
}

/// Parameter values the policy constructors reject must fail in the
/// registry, with its out-of-range wording, instead of parsing into a
/// kind whose `build()` panics. That holds through `parse_spec`, the CLI's
/// `--policy` and its `--mem-cap`/`--pim-cap` flags alike.
#[test]
fn out_of_range_parameters_are_errors_not_panics() {
    let cli = |line: &str| {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        pimsim_cli::parse_args(&args)
    };
    for spec in [
        "f3fs:mem-cap=0",
        "f3fs:pim-cap=0",
        "f3fs-no-mode-first:mem-cap=0",
        "f3fs-no-mode-first:pim-cap=0",
        "sms:batch-cap=0",
        "sms:sjf-percent=101",
        "gi:high=0",
        // The default high watermark is 56.
        "gi:low=70",
        "gi:high=10,low=20",
        "gi:low=20,high=20",
    ] {
        let e = PolicyKind::parse_spec(spec).expect_err(spec);
        assert!(e.0.contains("out of range"), "{spec}: {e}");
        let line = format!("coexec --gpu G4 --pim P1 --scale 0.005 --policy {spec}");
        assert!(cli(&line).is_err(), "CLI accepted {spec}");
    }
    for flags in ["--mem-cap 0", "--pim-cap 0"] {
        let line = format!("standalone --gpu G4 --policy f3fs {flags}");
        let e = cli(&line).expect_err(&line);
        assert!(e.to_string().contains("out of range"), "{line}: {e}");
    }
    // The watermark order is checked once every pair is applied, so a
    // spec may lower `high` below the default `low` before lowering `low`.
    for (spec, kind) in [
        (
            "gi:high=30,low=20",
            PolicyKind::GatherIssue { high: 30, low: 20 },
        ),
        (
            "gi:low=70,high=80",
            PolicyKind::GatherIssue { high: 80, low: 70 },
        ),
        ("gi:high=33", PolicyKind::GatherIssue { high: 33, low: 32 }),
        (
            "gi:high=1,low=0",
            PolicyKind::GatherIssue { high: 1, low: 0 },
        ),
        (
            "sms:batch-cap=1,sjf-percent=100",
            PolicyKind::Sms {
                batch_cap: 1,
                sjf_percent: 100,
            },
        ),
        (
            "f3fs:mem-cap=1,pim-cap=1",
            PolicyKind::F3fs {
                mem_cap: 1,
                pim_cap: 1,
            },
        ),
    ] {
        assert_eq!(PolicyKind::parse_spec(spec), Ok(kind), "{spec}");
        let _ = kind.build();
    }
}
