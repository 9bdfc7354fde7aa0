//! Name ↔ kind ↔ builder registry for scheduling policies.
//!
//! Front-ends (the CLI, bench binaries, sweep drivers) used to each carry
//! their own `match` over [`PolicyKind`] to map user-facing names to
//! variants and to apply tuning parameters. This module centralizes that
//! mapping: every policy is registered once with its canonical name,
//! accepted aliases, default parameters, and the set of tunable keys.
//!
//! # Example
//!
//! ```
//! use pimsim_core::policy::PolicyKind;
//!
//! let kind = PolicyKind::parse_spec("f3fs:mem-cap=64,pim-cap=16").unwrap();
//! assert_eq!(
//!     kind,
//!     PolicyKind::F3fs {
//!         mem_cap: 64,
//!         pim_cap: 16
//!     }
//! );
//! assert_eq!(kind.canonical_name(), "f3fs");
//! ```

use super::PolicyKind;

/// One tunable integer parameter of a registered policy.
#[derive(Debug, Clone, Copy)]
pub struct ParamSpec {
    /// Parameter key as written in a spec string, e.g. `"mem-cap"`.
    pub key: &'static str,
    /// One-line description shown in help listings.
    pub help: &'static str,
}

/// A registered scheduling policy.
#[derive(Debug, Clone, Copy)]
pub struct PolicyDescriptor {
    /// Canonical spec name, e.g. `"fr-fcfs-cap"`.
    pub name: &'static str,
    /// Accepted alternative spellings (matched case-insensitively).
    pub aliases: &'static [&'static str],
    /// One-line description shown in help listings.
    pub summary: &'static str,
    /// Tunable parameters accepted after `name:` in a spec string.
    pub params: &'static [ParamSpec],
    default_kind: PolicyKind,
}

impl PolicyDescriptor {
    /// The policy's [`PolicyKind`] with its registered default parameters.
    pub fn default_kind(&self) -> PolicyKind {
        self.default_kind
    }
}

/// Error from [`parse_spec`] or [`apply_param`]: an unknown policy name,
/// unknown parameter key, or out-of-range value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyParseError(pub String);

impl std::fmt::Display for PolicyParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for PolicyParseError {}

static REGISTRY: &[PolicyDescriptor] = &[
    PolicyDescriptor {
        name: "fcfs",
        aliases: &[],
        summary: "first-come first-served across both queues",
        params: &[],
        default_kind: PolicyKind::Fcfs,
    },
    PolicyDescriptor {
        name: "mem-first",
        aliases: &["memfirst"],
        summary: "always service MEM requests when any exist",
        params: &[],
        default_kind: PolicyKind::MemFirst,
    },
    PolicyDescriptor {
        name: "pim-first",
        aliases: &["pimfirst"],
        summary: "always service PIM requests when any exist",
        params: &[],
        default_kind: PolicyKind::PimFirst,
    },
    PolicyDescriptor {
        name: "fr-fcfs",
        aliases: &["frfcfs"],
        summary: "first-ready FCFS: row hits first, oldest-mode switching",
        params: &[],
        default_kind: PolicyKind::FrFcfs,
    },
    PolicyDescriptor {
        name: "fr-fcfs-cap",
        aliases: &["frfcfs-cap"],
        summary: "FR-FCFS with a cap on row hits bypassing the oldest request",
        params: &[ParamSpec {
            key: "cap",
            help: "max bypasses before oldest-first takes over",
        }],
        default_kind: PolicyKind::FrFcfsCap { cap: 32 },
    },
    PolicyDescriptor {
        name: "bliss",
        aliases: &[],
        summary: "blacklisting memory scheduler (Subramanian et al.)",
        params: &[
            ParamSpec {
                key: "threshold",
                help: "consecutive requests from one application before blacklisting",
            },
            ParamSpec {
                key: "clear-interval",
                help: "blacklist clearing interval in DRAM cycles",
            },
        ],
        default_kind: PolicyKind::Bliss {
            threshold: 4,
            clear_interval: 10_000,
        },
    },
    PolicyDescriptor {
        name: "fr-rr-fcfs",
        aliases: &["frrrfcfs"],
        summary: "first-ready round-robin FCFS: cycles modes on row conflicts",
        params: &[],
        default_kind: PolicyKind::FrRrFcfs,
    },
    PolicyDescriptor {
        name: "gi",
        aliases: &["g&i", "gather-issue"],
        summary: "Gather & Issue: watermark-driven PIM draining",
        params: &[
            ParamSpec {
                key: "high",
                help: "PIM-queue occupancy that triggers a switch to PIM",
            },
            ParamSpec {
                key: "low",
                help: "occupancy at which draining stops",
            },
        ],
        default_kind: PolicyKind::GatherIssue { high: 56, low: 32 },
    },
    PolicyDescriptor {
        name: "f3fs",
        aliases: &[],
        summary: "First Mode-FR-FCFS (this paper) with per-mode bypass CAPs",
        params: &[
            ParamSpec {
                key: "mem-cap",
                help: "CAP on MEM requests bypassing an older PIM request",
            },
            ParamSpec {
                key: "pim-cap",
                help: "CAP on PIM requests bypassing an older MEM request",
            },
        ],
        default_kind: PolicyKind::F3fs {
            mem_cap: 32,
            pim_cap: 32,
        },
    },
    PolicyDescriptor {
        name: "sms",
        aliases: &[],
        summary: "SMS-lite: batch-granularity scheduling with probabilistic SJF",
        params: &[
            ParamSpec {
                key: "batch-cap",
                help: "maximum requests per batch",
            },
            ParamSpec {
                key: "sjf-percent",
                help: "probability (percent) of the shortest-job-first choice",
            },
        ],
        default_kind: PolicyKind::Sms {
            batch_cap: 32,
            sjf_percent: 90,
        },
    },
    PolicyDescriptor {
        name: "f3fs-no-mode-first",
        aliases: &["f3fs-ablate"],
        summary: "F3FS ablation: CAPs without the current-mode-first stage",
        params: &[
            ParamSpec {
                key: "mem-cap",
                help: "CAP on MEM requests bypassing an older PIM request",
            },
            ParamSpec {
                key: "pim-cap",
                help: "CAP on PIM requests bypassing an older MEM request",
            },
        ],
        default_kind: PolicyKind::F3fsNoModeFirst {
            mem_cap: 32,
            pim_cap: 32,
        },
    },
];

/// All registered policies, in presentation order.
pub fn descriptors() -> &'static [PolicyDescriptor] {
    REGISTRY
}

/// Finds a policy by canonical name or alias (case-insensitive).
pub fn lookup(name: &str) -> Option<&'static PolicyDescriptor> {
    REGISTRY.iter().find(|d| {
        d.name.eq_ignore_ascii_case(name) || d.aliases.iter().any(|a| a.eq_ignore_ascii_case(name))
    })
}

/// The registered canonical name for a kind, regardless of its parameters.
pub fn canonical_name(kind: PolicyKind) -> &'static str {
    let name = match kind {
        PolicyKind::Fcfs => "fcfs",
        PolicyKind::MemFirst => "mem-first",
        PolicyKind::PimFirst => "pim-first",
        PolicyKind::FrFcfs => "fr-fcfs",
        PolicyKind::FrFcfsCap { .. } => "fr-fcfs-cap",
        PolicyKind::Bliss { .. } => "bliss",
        PolicyKind::FrRrFcfs => "fr-rr-fcfs",
        PolicyKind::GatherIssue { .. } => "gi",
        PolicyKind::Sms { .. } => "sms",
        PolicyKind::F3fs { .. } => "f3fs",
        PolicyKind::F3fsNoModeFirst { .. } => "f3fs-no-mode-first",
    };
    debug_assert!(lookup(name).is_some(), "canonical name not registered");
    name
}

fn out_of_range(name: &str, key: &str, value: u64) -> PolicyParseError {
    PolicyParseError(format!("{name}: value {value} out of range for '{key}'"))
}

fn narrow<T: TryFrom<u64>>(name: &str, key: &str, value: u64) -> Result<T, PolicyParseError> {
    T::try_from(value).map_err(|_| out_of_range(name, key, value))
}

/// [`narrow`] for parameters that must be nonzero: bypass and batch
/// caps, and G&I's high watermark (the low one must sit below it).
fn nonzero<T: TryFrom<u64>>(name: &str, key: &str, value: u64) -> Result<T, PolicyParseError> {
    if value == 0 {
        return Err(out_of_range(name, key, value));
    }
    narrow(name, key, value)
}

/// Returns `kind` with the tunable parameter `key` set to `value`.
///
/// Fails if the policy has no such parameter or the value is outside the
/// parameter's own domain: a zero cap or high watermark, an SJF
/// probability above 100 percent, or a value that does not fit the
/// parameter's type. Constraints between parameters (G&I's `low < high`)
/// are checked once all of a spec's pairs are applied, by
/// [`parse_spec`].
pub fn apply_param(
    kind: PolicyKind,
    key: &str,
    value: u64,
) -> Result<PolicyKind, PolicyParseError> {
    let name = canonical_name(kind);
    let unknown = || {
        let d = lookup(name).expect("canonical name registered");
        let keys: Vec<&str> = d.params.iter().map(|p| p.key).collect();
        PolicyParseError(if keys.is_empty() {
            format!("policy '{name}' has no tunable parameters (got '{key}')")
        } else {
            format!(
                "policy '{name}' has no tunable parameter '{key}' (accepts: {})",
                keys.join(", ")
            )
        })
    };
    match (kind, key) {
        (PolicyKind::FrFcfsCap { .. }, "cap") => Ok(PolicyKind::FrFcfsCap {
            cap: narrow(name, key, value)?,
        }),
        (PolicyKind::Bliss { clear_interval, .. }, "threshold") => Ok(PolicyKind::Bliss {
            threshold: narrow(name, key, value)?,
            clear_interval,
        }),
        (PolicyKind::Bliss { threshold, .. }, "clear-interval") => Ok(PolicyKind::Bliss {
            threshold,
            clear_interval: value,
        }),
        (PolicyKind::GatherIssue { low, .. }, "high") => Ok(PolicyKind::GatherIssue {
            high: nonzero(name, key, value)?,
            low,
        }),
        (PolicyKind::GatherIssue { high, .. }, "low") => Ok(PolicyKind::GatherIssue {
            high,
            low: narrow(name, key, value)?,
        }),
        (PolicyKind::Sms { sjf_percent, .. }, "batch-cap") => Ok(PolicyKind::Sms {
            batch_cap: nonzero(name, key, value)?,
            sjf_percent,
        }),
        (PolicyKind::Sms { batch_cap, .. }, "sjf-percent") => {
            if value > 100 {
                return Err(out_of_range(name, key, value));
            }
            Ok(PolicyKind::Sms {
                batch_cap,
                sjf_percent: narrow(name, key, value)?,
            })
        }
        (PolicyKind::F3fs { pim_cap, .. }, "mem-cap") => Ok(PolicyKind::F3fs {
            mem_cap: nonzero(name, key, value)?,
            pim_cap,
        }),
        (PolicyKind::F3fs { mem_cap, .. }, "pim-cap") => Ok(PolicyKind::F3fs {
            mem_cap,
            pim_cap: nonzero(name, key, value)?,
        }),
        (PolicyKind::F3fsNoModeFirst { pim_cap, .. }, "mem-cap") => {
            Ok(PolicyKind::F3fsNoModeFirst {
                mem_cap: nonzero(name, key, value)?,
                pim_cap,
            })
        }
        (PolicyKind::F3fsNoModeFirst { mem_cap, .. }, "pim-cap") => {
            Ok(PolicyKind::F3fsNoModeFirst {
                mem_cap,
                pim_cap: nonzero(name, key, value)?,
            })
        }
        _ => Err(unknown()),
    }
}

/// Parses a policy spec string: a registered name, optionally followed by
/// `:key=value` pairs separated by commas.
///
/// `"fr-fcfs"`, `"f3fs:mem-cap=64,pim-cap=16"`, `"bliss:threshold=8"`.
/// Every kind it returns builds without panicking: each value is checked
/// by [`apply_param`], and G&I's `low < high` once all pairs are applied
/// (so `"gi:high=30,low=20"` is legal although `low` still sits at its
/// default 32 after the first pair).
pub fn parse_spec(spec: &str) -> Result<PolicyKind, PolicyParseError> {
    let (name, params) = match spec.split_once(':') {
        Some((n, p)) => (n.trim(), Some(p)),
        None => (spec.trim(), None),
    };
    let desc = lookup(name).ok_or_else(|| {
        let names: Vec<&str> = REGISTRY.iter().map(|d| d.name).collect();
        PolicyParseError(format!(
            "unknown policy '{name}' (known: {})",
            names.join(", ")
        ))
    })?;
    let mut kind = desc.default_kind();
    if let Some(params) = params {
        for pair in params.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair.split_once('=').ok_or_else(|| {
                PolicyParseError(format!("{}: expected 'key=value', got '{pair}'", desc.name))
            })?;
            let value: u64 = value.trim().parse().map_err(|_| {
                PolicyParseError(format!(
                    "{}: parameter '{}' needs an unsigned integer, got '{}'",
                    desc.name,
                    key.trim(),
                    value.trim()
                ))
            })?;
            kind = apply_param(kind, key.trim(), value)?;
        }
    }
    if let PolicyKind::GatherIssue { high, low } = kind {
        if low >= high {
            return Err(PolicyParseError(format!(
                "{}: value {low} out of range for 'low' (must be below 'high' = {high})",
                desc.name
            )));
        }
    }
    Ok(kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_descriptor_round_trips_name_and_kind() {
        for d in descriptors() {
            let kind = d.default_kind();
            assert_eq!(canonical_name(kind), d.name, "name/kind mismatch");
            assert_eq!(parse_spec(d.name).unwrap(), kind, "parse({})", d.name);
            for alias in d.aliases {
                assert_eq!(parse_spec(alias).unwrap(), kind, "alias {alias}");
            }
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert_eq!(lookup("FR-FCFS").unwrap().name, "fr-fcfs");
        assert_eq!(lookup("G&I").unwrap().name, "gi");
        assert!(lookup("nope").is_none());
    }

    #[test]
    fn parse_spec_applies_parameters() {
        assert_eq!(
            parse_spec("f3fs:mem-cap=64,pim-cap=16").unwrap(),
            PolicyKind::F3fs {
                mem_cap: 64,
                pim_cap: 16
            }
        );
        assert_eq!(
            parse_spec("bliss:threshold=8").unwrap(),
            PolicyKind::Bliss {
                threshold: 8,
                clear_interval: 10_000
            }
        );
        assert_eq!(
            parse_spec("gi:high=40,low=8").unwrap(),
            PolicyKind::GatherIssue { high: 40, low: 8 }
        );
    }

    #[test]
    fn parse_spec_rejects_bad_input() {
        assert!(parse_spec("warp-speed").unwrap_err().0.contains("unknown"));
        assert!(parse_spec("fcfs:cap=3")
            .unwrap_err()
            .0
            .contains("no tunable parameter"));
        assert!(parse_spec("f3fs:mem-cap")
            .unwrap_err()
            .0
            .contains("key=value"));
        assert!(parse_spec("f3fs:mem-cap=many")
            .unwrap_err()
            .0
            .contains("unsigned"));
        assert!(parse_spec("f3fs:mem-cap=99999999999")
            .unwrap_err()
            .0
            .contains("out of range"));
    }

    #[test]
    fn apply_param_rejects_foreign_keys() {
        let e = apply_param(PolicyKind::FrFcfs, "mem-cap", 1).unwrap_err();
        assert!(e.0.contains("no tunable parameter"), "{e}");
        let e = apply_param(PolicyKind::f3fs_competitive(), "cap", 1).unwrap_err();
        assert!(e.0.contains("accepts: mem-cap, pim-cap"), "{e}");
    }
}
