//! DRAM backend trait + registry: the one place backend kinds are
//! interpreted.
//!
//! The simulator above this crate (controller, memory pipeline stage,
//! partitions, CLI, bench drivers) selects a memory substrate by a
//! [`DramBackendKind`] carried opaquely in
//! [`SystemConfig::dram_backend`]; *only this module* matches on the
//! kind. It mirrors `pimsim_core::policy::registry` exactly: descriptors
//! with names, aliases, and [`ParamSpec`]s; `parse_spec("lp5x:ranks=4")`;
//! and a name ↔ kind ↔ builder round trip, so a backend added here is
//! immediately reachable from every front-end.
//!
//! # What the trait owns (and what it doesn't)
//!
//! A [`DramBackend`] owns the backend's *presets and construction*: DRAM
//! geometry, a [`TimingPreset`]-derived timing set, the address-map
//! layout, the energy coefficients, and the construction of the channel
//! state machine and address mapper. It deliberately does **not** own a
//! parallel implementation of timing legality, `earliest_issue`, or the
//! PIM burst closed form: those live once in [`Channel`], fully
//! parameterized by [`DramTiming`]/[`DramConfig`], and both backends
//! exercise the same engine with different parameters. That sharing is
//! the point — the event-driven fast paths are backend-agnostic, and the
//! LP5X preset proves it by enabling the `t_faw`/`t_wtr` rolling-window
//! constraints that default to 0 (disabled) on HBM.
//!
//! # Example
//!
//! ```
//! use pimsim_dram::backend;
//! use pimsim_types::{DramBackendKind, SystemConfig};
//!
//! let kind = backend::parse_spec("lp5x:ranks=4").unwrap();
//! assert_eq!(kind, DramBackendKind::Lp5x { ranks: 4 });
//! let cfg = backend::system_config(kind);
//! assert_eq!(cfg.dram.channels, 32); // 8 physical channels x 4 ranks
//! assert!(cfg.timing.t_faw > 0, "LP5X enables the tFAW window");
//! ```

use pimsim_types::{
    AddressMapConfig, DramBackendKind, DramConfig, DramTiming, SystemConfig, TimingPreset,
};

use crate::channel::Channel;
use crate::energy::EnergyConfig;
use crate::mapping::AddressMapper;

/// One tunable integer parameter of a registered backend.
#[derive(Debug, Clone, Copy)]
pub struct ParamSpec {
    /// Parameter key as written in a spec string, e.g. `"ranks"`.
    pub key: &'static str,
    /// One-line description shown in help listings.
    pub help: &'static str,
}

/// A registered DRAM backend.
#[derive(Debug, Clone, Copy)]
pub struct BackendDescriptor {
    /// Canonical spec name, e.g. `"lp5x"`.
    pub name: &'static str,
    /// Accepted alternative spellings (matched case-insensitively).
    pub aliases: &'static [&'static str],
    /// One-line description shown in help listings.
    pub summary: &'static str,
    /// Tunable parameters accepted after `name:` in a spec string.
    pub params: &'static [ParamSpec],
    default_kind: DramBackendKind,
}

impl BackendDescriptor {
    /// The backend's [`DramBackendKind`] with its registered defaults.
    pub fn default_kind(&self) -> DramBackendKind {
        self.default_kind
    }
}

/// Error from [`parse_spec`] or [`apply_param`]: an unknown backend name,
/// unknown parameter key, or out-of-range value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendParseError(pub String);

impl std::fmt::Display for BackendParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BackendParseError {}

/// A memory substrate: presets plus construction of the per-channel
/// machinery. See the module docs for the ownership boundary.
///
/// Methods take the (parameterized) kind because descriptors are static
/// while kinds carry tunables like the LP5X rank count.
pub trait DramBackend: Sync {
    /// Canonical registry name.
    fn name(&self) -> &'static str;

    /// DRAM geometry for `kind`.
    fn dram_config(&self, kind: DramBackendKind) -> DramConfig;

    /// Timing set for `kind`, built through [`DramTiming::preset`].
    fn timing(&self, kind: DramBackendKind) -> DramTiming;

    /// Address-map layout matching the geometry of `kind`.
    fn addr_map(&self, kind: DramBackendKind) -> AddressMapConfig;

    /// Energy coefficients for this substrate.
    fn energy(&self, kind: DramBackendKind) -> EnergyConfig;

    /// Builds one channel's state machine. Both provided backends share
    /// the parameterized [`Channel`] engine; the hook exists so the
    /// construction path is the trait, not a hard-coded constructor.
    fn build_channel(&self, dram: &DramConfig, timing: &DramTiming) -> Channel {
        Channel::new(dram, timing)
    }

    /// Builds the physical-address decoder for this backend's layout.
    fn build_mapper(
        &self,
        map: &AddressMapConfig,
        dram: &DramConfig,
        word_bytes: usize,
    ) -> AddressMapper {
        AddressMapper::new(map, dram, word_bytes)
    }

    /// Installs this backend's geometry, timing, and address map into
    /// `cfg` (leaving GPU/NoC/cache/MC parameters untouched) and stamps
    /// `cfg.dram_backend`.
    fn configure(&self, kind: DramBackendKind, cfg: &mut SystemConfig) {
        cfg.dram = self.dram_config(kind);
        cfg.timing = self.timing(kind);
        cfg.addr_map = self.addr_map(kind);
        cfg.dram_backend = kind;
    }
}

/// The paper's HBM substrate: Table I geometry and timing, exactly the
/// `SystemConfig::default()` values — configuring it is a no-op on a
/// default config, which is what keeps the HBM golden fixtures
/// byte-identical across the backend lift.
struct HbmBackend;

impl DramBackend for HbmBackend {
    fn name(&self) -> &'static str {
        "hbm"
    }

    fn dram_config(&self, _kind: DramBackendKind) -> DramConfig {
        DramConfig::default()
    }

    fn timing(&self, _kind: DramBackendKind) -> DramTiming {
        DramTiming::preset(TimingPreset::Hbm2Table1)
    }

    fn addr_map(&self, _kind: DramBackendKind) -> AddressMapConfig {
        AddressMapConfig::table1()
    }

    fn energy(&self, _kind: DramBackendKind) -> EnergyConfig {
        EnergyConfig::default()
    }
}

/// LPDDR5X-PIM: 8 physical channels of `ranks` ranks each, with the PIM
/// units placed per rank (LP5X-PIM Sim-style). Each rank is simulated as
/// its own channel — private banks, row buffers, PIM FUs, and timing
/// state — which models rank-level PIM concurrency at the cost of
/// ignoring command-bus sharing between ranks of one physical channel
/// (a deliberate simplification, recorded in `DESIGN.md` §4j).
struct Lp5xBackend;

/// Physical LPDDR5X channels on the package.
const LP5X_PHYSICAL_CHANNELS: usize = 8;

impl Lp5xBackend {
    fn ranks(kind: DramBackendKind) -> usize {
        match kind {
            DramBackendKind::Lp5x { ranks } => ranks,
            DramBackendKind::Hbm => unreachable!("lp5x backend handed an hbm kind"),
        }
    }
}

impl DramBackend for Lp5xBackend {
    fn name(&self) -> &'static str {
        "lp5x"
    }

    fn dram_config(&self, kind: DramBackendKind) -> DramConfig {
        DramConfig {
            channels: LP5X_PHYSICAL_CHANNELS * Self::ranks(kind),
            banks: 16,
            bank_groups: 4,
            clock_mhz: 937.5,
            rows_per_bank: 1 << 13,
            cols_per_row: 64,
            // Four wide FUs per rank (vs. HBM's eight per channel), each
            // shared by four banks, with a deeper register file so the
            // per-bank RF depth the PIM kernels assume (8) is unchanged.
            pim_fus_per_channel: 4,
            pim_rf_entries: 32,
        }
    }

    fn timing(&self, _kind: DramBackendKind) -> DramTiming {
        DramTiming::preset(TimingPreset::Lpddr5xPim)
    }

    fn addr_map(&self, kind: DramBackendKind) -> AddressMapConfig {
        // Table I's layout with the channel-bit run widened/narrowed to
        // the simulated channel count (ranks fold into channel bits).
        let channels = LP5X_PHYSICAL_CHANNELS * Self::ranks(kind);
        let d = channels.trailing_zeros() as usize;
        let mut p = String::with_capacity(20 + d);
        p.push_str(&"R".repeat(13));
        p.push_str("BBBCCCB");
        p.push_str(&"D".repeat(d));
        p.push_str("CCC");
        AddressMapConfig::BitPattern(p)
    }

    fn energy(&self, _kind: DramBackendKind) -> EnergyConfig {
        // LPDDR5X-class ballpark figures per 32 B access: cheaper array
        // operations and background power (mobile-optimized core), but
        // pricier I/O than HBM's through-silicon paths. Like the HBM
        // defaults, meant for relative comparisons.
        EnergyConfig {
            e_act: 650.0,
            e_pre: 400.0,
            e_rd_array: 120.0,
            e_wr_array: 130.0,
            e_io: 400.0,
            e_pim_fu: 50.0,
            e_ref: 18_000.0,
            p_background: 20.0,
        }
    }
}

static HBM: HbmBackend = HbmBackend;
static LP5X: Lp5xBackend = Lp5xBackend;

static REGISTRY: &[BackendDescriptor] = &[
    BackendDescriptor {
        name: "hbm",
        aliases: &["hbm2"],
        summary: "Table I HBM: 32 channels, per-channel PIM units (the paper's substrate)",
        params: &[],
        default_kind: DramBackendKind::Hbm,
    },
    BackendDescriptor {
        name: "lp5x",
        aliases: &["lpddr5x", "lp5x-pim"],
        summary: "LPDDR5X-PIM: 8 physical channels, per-rank PIM units, tFAW/tWTR enabled",
        params: &[ParamSpec {
            key: "ranks",
            help: "ranks per physical channel, each simulated as its own channel \
                   (power of two, 1..=8)",
        }],
        default_kind: DramBackendKind::Lp5x { ranks: 4 },
    },
];

/// All registered backends, in presentation order.
pub fn descriptors() -> &'static [BackendDescriptor] {
    REGISTRY
}

/// Finds a backend by canonical name or alias (case-insensitive).
pub fn lookup(name: &str) -> Option<&'static BackendDescriptor> {
    REGISTRY.iter().find(|d| {
        d.name.eq_ignore_ascii_case(name) || d.aliases.iter().any(|a| a.eq_ignore_ascii_case(name))
    })
}

/// The registered canonical name for a kind, regardless of its parameters.
pub fn canonical_name(kind: DramBackendKind) -> &'static str {
    let name = match kind {
        DramBackendKind::Hbm => "hbm",
        DramBackendKind::Lp5x { .. } => "lp5x",
    };
    debug_assert!(lookup(name).is_some(), "canonical name not registered");
    name
}

/// The backend implementation for a kind.
pub fn backend_for(kind: DramBackendKind) -> &'static dyn DramBackend {
    match kind {
        DramBackendKind::Hbm => &HBM,
        DramBackendKind::Lp5x { .. } => &LP5X,
    }
}

/// Returns `kind` with the tunable parameter `key` set to `value`.
///
/// Fails if the backend has no such parameter or the value is outside the
/// parameter's domain.
pub fn apply_param(
    kind: DramBackendKind,
    key: &str,
    value: u64,
) -> Result<DramBackendKind, BackendParseError> {
    let name = canonical_name(kind);
    let unknown = || {
        let d = lookup(name).expect("canonical name registered");
        let keys: Vec<&str> = d.params.iter().map(|p| p.key).collect();
        BackendParseError(if keys.is_empty() {
            format!("backend '{name}' has no tunable parameters (got '{key}')")
        } else {
            format!(
                "backend '{name}' has no tunable parameter '{key}' (accepts: {})",
                keys.join(", ")
            )
        })
    };
    match (kind, key) {
        (DramBackendKind::Lp5x { .. }, "ranks") => {
            if !(1..=8).contains(&value) || !value.is_power_of_two() {
                return Err(BackendParseError(format!(
                    "{name}: value {value} out of range for 'ranks' \
                     (accepts a power of two in 1..=8)"
                )));
            }
            #[allow(clippy::cast_possible_truncation)]
            Ok(DramBackendKind::Lp5x {
                ranks: value as usize,
            })
        }
        _ => Err(unknown()),
    }
}

/// Parses a backend spec string: a registered name, optionally followed
/// by `:key=value` pairs separated by commas.
///
/// `"hbm"`, `"lp5x"`, `"lp5x:ranks=2"`.
pub fn parse_spec(spec: &str) -> Result<DramBackendKind, BackendParseError> {
    let (name, params) = match spec.split_once(':') {
        Some((n, p)) => (n.trim(), Some(p)),
        None => (spec.trim(), None),
    };
    let desc = lookup(name).ok_or_else(|| {
        let names: Vec<&str> = REGISTRY.iter().map(|d| d.name).collect();
        BackendParseError(format!(
            "unknown backend '{name}' (known: {})",
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
                BackendParseError(format!("{}: expected 'key=value', got '{pair}'", desc.name))
            })?;
            let value: u64 = value.trim().parse().map_err(|_| {
                BackendParseError(format!(
                    "{}: parameter '{}' needs an unsigned integer, got '{}'",
                    desc.name,
                    key.trim(),
                    value.trim()
                ))
            })?;
            kind = apply_param(kind, key.trim(), value)?;
        }
    }
    Ok(kind)
}

/// Installs `kind`'s geometry, timing, and address map into `cfg`,
/// leaving GPU/NoC/cache/MC parameters untouched.
pub fn configure(kind: DramBackendKind, cfg: &mut SystemConfig) {
    backend_for(kind).configure(kind, cfg);
}

/// A full default system configured for `kind` (Table I GPU side plus the
/// backend's memory side).
pub fn system_config(kind: DramBackendKind) -> SystemConfig {
    let mut cfg = SystemConfig::default();
    configure(kind, &mut cfg);
    cfg
}

/// Builds one channel's state machine through the backend recorded in
/// `cfg` — the construction path the memory controller uses, so no crate
/// above this one names a concrete channel constructor.
pub fn channel_for(cfg: &SystemConfig) -> Channel {
    backend_for(cfg.dram_backend).build_channel(&cfg.dram, &cfg.timing)
}

/// Builds the address mapper through the backend recorded in `cfg`.
pub fn mapper_for(cfg: &SystemConfig) -> AddressMapper {
    backend_for(cfg.dram_backend).build_mapper(&cfg.addr_map, &cfg.dram, cfg.dram_word_bytes())
}

/// Energy coefficients for the backend recorded in `cfg`.
pub fn energy_for(cfg: &SystemConfig) -> EnergyConfig {
    backend_for(cfg.dram_backend).energy(cfg.dram_backend)
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
            assert_eq!(backend_for(kind).name(), d.name, "builder mismatch");
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert_eq!(lookup("HBM").unwrap().name, "hbm");
        assert_eq!(lookup("LPDDR5X").unwrap().name, "lp5x");
        assert!(lookup("nope").is_none());
    }

    #[test]
    fn parse_spec_applies_parameters() {
        assert_eq!(
            parse_spec("lp5x:ranks=2").unwrap(),
            DramBackendKind::Lp5x { ranks: 2 }
        );
        assert_eq!(
            parse_spec("lp5x").unwrap(),
            DramBackendKind::Lp5x { ranks: 4 }
        );
        assert_eq!(parse_spec(" hbm ").unwrap(), DramBackendKind::Hbm);
    }

    #[test]
    fn parse_spec_rejects_bad_input() {
        assert!(parse_spec("warp-speed").unwrap_err().0.contains("unknown"));
        assert!(parse_spec("hbm:ranks=4")
            .unwrap_err()
            .0
            .contains("no tunable parameter"));
        assert!(parse_spec("lp5x:ranks")
            .unwrap_err()
            .0
            .contains("key=value"));
        assert!(parse_spec("lp5x:ranks=banana")
            .unwrap_err()
            .0
            .contains("unsigned"));
        assert!(parse_spec("lp5x:ranks=3")
            .unwrap_err()
            .0
            .contains("out of range"));
        assert!(parse_spec("lp5x:ranks=16")
            .unwrap_err()
            .0
            .contains("out of range"));
    }

    #[test]
    fn apply_param_rejects_foreign_keys() {
        let e = apply_param(DramBackendKind::Hbm, "ranks", 4).unwrap_err();
        assert!(e.0.contains("no tunable parameters"), "{e}");
        let e = apply_param(DramBackendKind::Lp5x { ranks: 4 }, "banks", 8).unwrap_err();
        assert!(e.0.contains("accepts: ranks"), "{e}");
    }

    #[test]
    fn hbm_configure_is_identity_on_a_default_config() {
        // The bit-identical-goldens guarantee in one assertion: routing a
        // default config through the registry must change nothing.
        let mut cfg = SystemConfig::default();
        let before = cfg.clone();
        configure(DramBackendKind::Hbm, &mut cfg);
        assert_eq!(cfg, before);
    }

    #[test]
    fn every_backend_yields_a_valid_system() {
        for d in descriptors() {
            let cfg = system_config(d.default_kind());
            cfg.validate().unwrap_or_else(|e| panic!("{}: {e}", d.name));
            // The construction hooks must agree with the installed config.
            let ch = channel_for(&cfg);
            assert_eq!(ch.num_banks(), cfg.dram.banks);
            let m = mapper_for(&cfg);
            let d0 = m.decode(pimsim_types::PhysAddr(0));
            assert_eq!(m.encode(d0.channel, d0.bank, d0.row, d0.col).0, 0);
        }
    }

    #[test]
    fn lp5x_rank_counts_scale_simulated_channels() {
        for ranks in [1usize, 2, 4, 8] {
            let kind = DramBackendKind::Lp5x { ranks };
            let cfg = system_config(kind);
            assert_eq!(cfg.dram.channels, 8 * ranks, "ranks={ranks}");
            cfg.validate()
                .unwrap_or_else(|e| panic!("ranks={ranks}: {e}"));
        }
    }

    #[test]
    fn lp5x_enables_the_fidelity_window_constraints() {
        // The whole point of the second backend as a stress test: the
        // rolling tFAW window and tWTR turnaround must be live, not the
        // 0-disabled HBM defaults.
        let cfg = system_config(DramBackendKind::Lp5x { ranks: 4 });
        assert!(cfg.timing.t_faw > 0);
        assert!(cfg.timing.t_wtr > 0);
        let hbm = system_config(DramBackendKind::Hbm);
        assert_eq!(hbm.timing.t_faw, 0);
        assert_eq!(hbm.timing.t_wtr, 0);
    }

    #[test]
    fn registered_names_are_unambiguous() {
        let mut seen: Vec<String> = Vec::new();
        for d in descriptors() {
            for name in std::iter::once(&d.name).chain(d.aliases) {
                let lower = name.to_ascii_lowercase();
                assert!(!seen.contains(&lower), "duplicate spelling '{name}'");
                seen.push(lower);
            }
        }
    }
}
