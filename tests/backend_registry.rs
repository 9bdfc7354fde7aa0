//! Round-trips every entry of the DRAM backend registry through the
//! layers that consume it — the registry itself (name ↔ kind ↔ system
//! config), the CLI front-end, and the runner — and pins the error-path
//! parity with the policy registry: both registries speak the same
//! descriptive `ParseError` dialect, so a user who has read one spec
//! grammar can debug the other.

use pim_coscheduling::core::policy::registry as policy_registry;
use pim_coscheduling::dram::backend;
use pim_coscheduling::types::DramBackendKind;

#[test]
fn every_registered_backend_round_trips_name_kind_and_config() {
    let descriptors = backend::descriptors();
    assert!(descriptors.len() >= 2, "registry lost entries");
    for d in descriptors {
        let kind = d.default_kind();
        // name → kind → name.
        assert_eq!(backend::parse_spec(d.name).unwrap(), kind, "{}", d.name);
        assert_eq!(backend::canonical_name(kind), d.name);
        for alias in d.aliases {
            assert_eq!(backend::parse_spec(alias).unwrap(), kind, "{alias}");
        }
        // kind → system config; the result must be a valid system whose
        // stamp round-trips back to the kind.
        let cfg = backend::system_config(kind);
        cfg.validate().unwrap_or_else(|e| panic!("{}: {e}", d.name));
        assert_eq!(cfg.dram_backend, kind, "{}", d.name);
        // Every advertised parameter is actually tunable with some legal
        // value, and an arbitrary other key is rejected.
        for p in d.params {
            let tuned = backend::apply_param(kind, p.key, 1).unwrap_or_else(|e| {
                panic!("{}: advertised param '{}' rejected: {e}", d.name, p.key)
            });
            assert_eq!(
                backend::canonical_name(tuned),
                d.name,
                "tuning changed backend"
            );
        }
        assert!(
            backend::apply_param(kind, "no-such-key", 1).is_err(),
            "{}",
            d.name
        );
    }
}

#[test]
fn cli_accepts_every_registered_backend_name() {
    for d in backend::descriptors() {
        for name in std::iter::once(&d.name).chain(d.aliases) {
            let args: Vec<String> = ["standalone", "--pim", "P1", "--dram", name]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let cmd = pimsim_cli::parse_args(&args)
                .unwrap_or_else(|e| panic!("CLI rejected registered backend '{name}': {e}"));
            let pimsim_cli::Command::Standalone(opts) = cmd else {
                panic!("wrong subcommand for '{name}'")
            };
            assert_eq!(opts.dram, d.default_kind(), "{name}");
        }
    }
}

/// The two registries' parse errors use the same phrasings for the same
/// failure classes. A change to either message style must be made in both
/// or this test points at the drift.
#[test]
fn backend_errors_match_policy_registry_dialect() {
    // Unknown name: "unknown <noun> '<name>' (known: ...)".
    let b = backend::parse_spec("no-such-backend").unwrap_err().0;
    let p = policy_registry::parse_spec("no-such-policy").unwrap_err().0;
    assert_eq!(b, "unknown backend 'no-such-backend' (known: hbm, lp5x)");
    assert!(
        p.starts_with("unknown policy 'no-such-policy' (known: "),
        "policy dialect changed: {p}"
    );

    // Malformed pair: "<name>: expected 'key=value', got '<pair>'".
    let b = backend::parse_spec("lp5x:ranks").unwrap_err().0;
    let p = policy_registry::parse_spec("f3fs:mem-cap").unwrap_err().0;
    assert_eq!(b, "lp5x: expected 'key=value', got 'ranks'");
    assert_eq!(p, "f3fs: expected 'key=value', got 'mem-cap'");

    // Non-integer value: "<name>: parameter '<key>' needs an unsigned
    // integer, got '<value>'".
    let b = backend::parse_spec("lp5x:ranks=banana").unwrap_err().0;
    let p = policy_registry::parse_spec("f3fs:mem-cap=banana")
        .unwrap_err()
        .0;
    assert_eq!(
        b,
        "lp5x: parameter 'ranks' needs an unsigned integer, got 'banana'"
    );
    assert_eq!(
        p,
        "f3fs: parameter 'mem-cap' needs an unsigned integer, got 'banana'"
    );

    // Out-of-domain value: "<name>: value <v> out of range for '<key>' ...".
    let b = backend::parse_spec("lp5x:ranks=3").unwrap_err().0;
    assert!(
        b.starts_with("lp5x: value 3 out of range for 'ranks'"),
        "backend dialect changed: {b}"
    );
    let b = backend::parse_spec("lp5x:ranks=16").unwrap_err().0;
    assert!(
        b.starts_with("lp5x: value 16 out of range for 'ranks'"),
        "backend dialect changed: {b}"
    );
    let p = policy_registry::parse_spec("fr-fcfs-cap:cap=99999999999")
        .unwrap_err()
        .0;
    assert!(
        p.contains("out of range for 'cap'"),
        "policy dialect changed: {p}"
    );

    // Parameter on a backend without tunables: "<noun> '<name>' has no
    // tunable parameters (got '<key>')".
    let b = backend::parse_spec("hbm:ranks=4").unwrap_err().0;
    assert_eq!(b, "backend 'hbm' has no tunable parameters (got 'ranks')");
    // Unknown key on a backend with tunables: "... has no tunable
    // parameter '<key>' (accepts: ...)".
    let b = backend::parse_spec("lp5x:banks=32").unwrap_err().0;
    assert_eq!(
        b,
        "backend 'lp5x' has no tunable parameter 'banks' (accepts: ranks)"
    );
    let p = policy_registry::parse_spec("f3fs:banks=32").unwrap_err().0;
    assert!(
        p.starts_with("policy 'f3fs' has no tunable parameter 'banks' (accepts: "),
        "policy dialect changed: {p}"
    );
}

#[test]
fn rank_spellings_round_trip_through_spec_strings() {
    for ranks in [1usize, 2, 4, 8] {
        let spec = format!("lp5x:ranks={ranks}");
        let kind = backend::parse_spec(&spec).unwrap();
        assert_eq!(kind, DramBackendKind::Lp5x { ranks });
        let cfg = backend::system_config(kind);
        assert_eq!(cfg.dram.channels, 8 * ranks, "{spec}");
    }
}

/// Co-execution runs on every registered rank count: the PIM kernel
/// takes one SM per `pim_warps_per_sm` channels and the GPU kernel the
/// rest, so no backend asks for more SMs than the GPU has or sends a PIM
/// op to a channel it lacks. One competitive and one collaborative run
/// through the CLI per rank count, at a tiny scale.
#[test]
fn coexecution_runs_on_every_registered_rank_count() {
    let lp5x = backend::lookup("lp5x").expect("registered").default_kind();
    let ranks: Vec<u64> = (1..=8)
        .filter(|&r| backend::apply_param(lp5x, "ranks", r).is_ok())
        .collect();
    assert!(ranks.len() >= 2, "registry lost rank counts: {ranks:?}");
    for r in ranks {
        let dram = format!("lp5x:ranks={r}");
        let cfg = backend::system_config(backend::parse_spec(&dram).expect("registered"));
        let split = format!(
            "({} SMs) + P4 (Stream Scale) ({} SMs)",
            cfg.coexec_gpu_sms(),
            cfg.pim_sms()
        );
        assert_eq!(
            cfg.coexec_gpu_sms() + cfg.pim_sms(),
            cfg.gpu.num_sms,
            "{dram}"
        );
        for sub in ["coexec --gpu G11 --pim P4", "collab"] {
            let args: Vec<String> = format!("{sub} --dram {dram} --scale 0.01")
                .split_whitespace()
                .map(str::to_owned)
                .collect();
            let cmd = pimsim_cli::parse_args(&args).expect("valid invocation");
            let mut out = Vec::new();
            let code = pimsim_cli::run(cmd, &mut out);
            let text = String::from_utf8(out).expect("UTF-8 output");
            assert_eq!(code, 0, "`{sub}` on {dram} failed:\n{text}");
            if sub.starts_with("coexec") {
                assert!(
                    text.contains(&split),
                    "{dram}: banner lacks {split}:\n{text}"
                );
            }
        }
    }
}
