//! System configuration.
//!
//! Defaults reproduce Table I of the paper (NVIDIA Quadro GV100-class GPU
//! with HBM memory). All sizes are per the units in each field's docs.

/// Interconnect virtual-channel configuration (Section V of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VcMode {
    /// Baseline: MEM and PIM requests share a single virtual channel and a
    /// single set of queues ("VC1" in the paper, Figure 7a).
    Shared,
    /// Proposed: a separate virtual channel and queue for PIM requests all
    /// the way from the SMs to the memory controller ("VC2", Figure 7b).
    /// Existing queues are split in half so total buffering is unchanged.
    SplitPim,
}

impl VcMode {
    /// Number of virtual channels per port.
    pub fn vc_count(self) -> usize {
        match self {
            VcMode::Shared => 1,
            VcMode::SplitPim => 2,
        }
    }

    /// Paper-style label: `VC1` or `VC2`.
    pub fn label(self) -> &'static str {
        match self {
            VcMode::Shared => "VC1",
            VcMode::SplitPim => "VC2",
        }
    }
}

impl std::fmt::Display for VcMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// GPU core parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors (Table I: 80).
    pub num_sms: usize,
    /// Core clock in MHz (Table I: 1132).
    pub core_clock_mhz: f64,
    /// Maximum in-flight MEM requests per SM (models the SM's MSHRs /
    /// load-store queue depth).
    pub max_outstanding_mem_per_sm: usize,
    /// Maximum in-flight PIM stores per warp. PIM stores are cache-streaming
    /// (non-temporal) stores that retire from the SM immediately, so a warp
    /// can keep hundreds in flight; the effective limit is interconnect and
    /// queue buffering. This must be large enough for PIM kernels to
    /// saturate the memory subsystem (Section IV) — the congestion chain of
    /// Figure 7a disappears if it is small.
    pub max_outstanding_pim_per_warp: usize,
    /// Warps per SM used by PIM kernels (paper: 4 warps/SM x 8 SMs = 32
    /// warps, one per memory channel).
    pub pim_warps_per_sm: usize,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            num_sms: 80,
            core_clock_mhz: 1132.0,
            max_outstanding_mem_per_sm: 64,
            max_outstanding_pim_per_warp: 256,
            pim_warps_per_sm: 4,
        }
    }
}

/// Interconnect parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct NocConfig {
    /// Total buffer entries per injection port (Table I: 512). Under
    /// [`VcMode::SplitPim`] this is split in half between the MEM and PIM
    /// virtual channels, keeping total buffering equal to the baseline.
    pub input_queue_entries: usize,
    /// Virtual-channel configuration.
    pub vc_mode: VcMode,
    /// Buffer entries per reply-network input port (at the memory
    /// partitions). Replies are all MEM traffic, so this is never split.
    pub reply_queue_entries: usize,
    /// iSlip request-grant iterations per crossbar cycle (>= 1). A second
    /// iteration lets an input that lost arbitration propose its other
    /// VC's head toward a still-free output.
    pub islip_iterations: usize,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            input_queue_entries: 512,
            vc_mode: VcMode::Shared,
            reply_queue_entries: 512,
            islip_iterations: 1,
        }
    }
}

/// L2 cache parameters. The cache is sliced per memory channel.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Total capacity in bytes across all slices (Table I: 6 MB).
    pub total_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes. We use the 32 B DRAM atom (sectored-cache
    /// behavior): one miss produces one DRAM burst.
    pub line_bytes: usize,
    /// Tag/data pipeline latency in GPU cycles.
    pub latency: u64,
    /// Miss-status holding registers per slice.
    pub mshr_entries: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            total_bytes: 6 * 1024 * 1024,
            ways: 16,
            line_bytes: 32,
            latency: 32,
            mshr_entries: 48,
        }
    }
}

/// DRAM timing parameters, in DRAM cycles (Table I).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramTiming {
    /// Column-to-column delay, different bank group.
    pub t_ccds: u64,
    /// Column-to-column delay, same bank group.
    pub t_ccdl: u64,
    /// Activate-to-activate delay across banks.
    pub t_rrd: u64,
    /// Activate-to-column delay (RAS-to-CAS).
    pub t_rcd: u64,
    /// Precharge period.
    pub t_rp: u64,
    /// Minimum row-open time (activate-to-precharge).
    pub t_ras: u64,
    /// Read CAS latency.
    pub t_cl: u64,
    /// Write latency.
    pub t_wl: u64,
    /// Write recovery (end of write burst to precharge).
    pub t_wr: u64,
    /// Read-to-precharge, long.
    pub t_rtpl: u64,
    /// Data-bus occupancy of one burst (burst length 2 on a DDR bus = 1
    /// DRAM clock).
    pub burst_cycles: u64,
    /// Four-activate window: at most four activates per rolling window of
    /// this many cycles. `0` disables the constraint (Table I does not
    /// list tFAW; enable it for fidelity ablations).
    pub t_faw: u64,
    /// Write-to-read turnaround: a read may not issue until this many
    /// cycles after the end of the last write burst. `0` disables it
    /// (not listed in Table I).
    pub t_wtr: u64,
    /// Average refresh interval: one all-bank refresh is due every this
    /// many cycles. `0` disables refresh (the paper's simulator
    /// configuration; enable for fidelity ablations).
    pub t_refi: u64,
    /// Refresh cycle time: banks are unavailable for this long per
    /// refresh.
    pub t_rfc: u64,
}

impl Default for DramTiming {
    fn default() -> Self {
        DramTiming {
            t_ccds: 1,
            t_ccdl: 2,
            t_rrd: 3,
            t_rcd: 12,
            t_rp: 12,
            t_ras: 28,
            t_cl: 12,
            t_wl: 2,
            t_wr: 10,
            t_rtpl: 3,
            burst_cycles: 1,
            t_faw: 0,
            t_wtr: 0,
            t_refi: 0,
            t_rfc: 0,
        }
    }
}

/// A named, internally consistent timing parameterization.
///
/// This is the single constructor path for [`DramTiming`] values beyond
/// `Default`: the `t_faw`/`t_wtr`/`t_refi`/`t_rfc` fields follow a
/// "0 disables" convention, and hand-assembling them risks half-enabled
/// fidelity constraints (e.g. a rolling four-activate window with no
/// write-to-read turnaround). Each preset enables or disables those
/// constraints as a documented group; ablations that want one knob at a
/// time should start from a preset and zero individual fields explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimingPreset {
    /// Table I of the paper (HBM at 850 MHz). tFAW/tWTR/refresh are all
    /// disabled, matching the paper's simulator configuration.
    Hbm2Table1,
    /// Table I plus the constraints the paper's table omits, at
    /// HBM-plausible values: tFAW=16, tWTR=4, tREFI=3328 (3.9 µs at 850
    /// MHz), tRFC=298 (350 ns). Used by the fidelity ablation bench.
    Hbm2Fidelity,
    /// LPDDR5X-PIM (LP5X-PIM Sim-style substrate): slower core timing in
    /// DRAM cycles at 937.5 MHz, burst length 32 on a x16 bus
    /// (`burst_cycles`=2), and the tFAW/tWTR constraints *enabled* —
    /// LPDDR5X parts are activation-power limited, so a backend that
    /// dropped the rolling-window paths would be silently wrong here.
    /// Refresh stays disabled to match the paper's baseline methodology.
    Lpddr5xPim,
}

impl DramTiming {
    /// Builds the timing for a named [`TimingPreset`] — the one sanctioned
    /// constructor for non-default timing sets (see the preset docs for
    /// why the fidelity fields travel as a group).
    pub fn preset(preset: TimingPreset) -> Self {
        match preset {
            TimingPreset::Hbm2Table1 => Self::default(),
            TimingPreset::Hbm2Fidelity => DramTiming {
                t_faw: 16,
                t_wtr: 4,
                t_refi: 3328,
                t_rfc: 298,
                ..Self::default()
            },
            TimingPreset::Lpddr5xPim => DramTiming {
                t_ccds: 2,
                t_ccdl: 4,
                t_rrd: 4,
                t_rcd: 15,
                t_rp: 15,
                t_ras: 34,
                t_cl: 15,
                t_wl: 7,
                t_wr: 14,
                t_rtpl: 6,
                burst_cycles: 2,
                t_faw: 16,
                t_wtr: 5,
                t_refi: 0,
                t_rfc: 0,
            },
        }
    }

    /// Table I timing plus the omitted constraints enabled
    /// ([`TimingPreset::Hbm2Fidelity`]). Kept as a named shorthand for the
    /// fidelity ablation bench.
    pub fn with_fidelity_extensions() -> Self {
        Self::preset(TimingPreset::Hbm2Fidelity)
    }
}

/// DRAM organization parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Number of memory channels (Table I: 32).
    pub channels: usize,
    /// Banks per channel (Table I: 16).
    pub banks: usize,
    /// Bank groups per channel; `t_ccdl` applies within a group, `t_ccds`
    /// across groups.
    pub bank_groups: usize,
    /// DRAM clock in MHz (Table I: 850).
    pub clock_mhz: f64,
    /// Rows per bank (sized for the scaled working sets).
    pub rows_per_bank: u32,
    /// DRAM words (columns) per row. With a 32 B word this is the row
    /// buffer size in words.
    pub cols_per_row: u32,
    /// PIM functional units per channel (Table I: 8; each FU is shared by a
    /// pair of banks).
    pub pim_fus_per_channel: usize,
    /// Register-file entries per PIM FU (Table I: 16; 8 per bank of the
    /// sharing pair).
    pub pim_rf_entries: usize,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            channels: 32,
            banks: 16,
            bank_groups: 4,
            clock_mhz: 850.0,
            rows_per_bank: 1 << 13,
            cols_per_row: 64,
            pim_fus_per_channel: 8,
            pim_rf_entries: 16,
        }
    }
}

/// Row-buffer management policy for MEM accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PagePolicy {
    /// Open-page: rows stay open after a column access (the paper's
    /// implicit policy; row hits are possible and FR-FCFS exploits them).
    Open,
    /// Closed-page: every MEM column access auto-precharges its bank
    /// (RDA/WRA). Kills row hits but removes conflict penalties —
    /// the classic trade, exposed for ablation. PIM blocks always run
    /// open-page (their structure requires it).
    Closed,
}

/// Memory-controller and memory-partition queue parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct McConfig {
    /// MEM queue entries per channel (Table I: 64).
    pub mem_q_entries: usize,
    /// PIM queue entries per channel (Table I: 64).
    pub pim_q_entries: usize,
    /// Interconnect-to-L2 staging queue entries per partition (split per VC
    /// under [`VcMode::SplitPim`]).
    pub icnt_to_l2_entries: usize,
    /// L2-to-DRAM staging queue entries per partition (split per VC under
    /// [`VcMode::SplitPim`]).
    pub l2_to_dram_entries: usize,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            mem_q_entries: 64,
            pim_q_entries: 64,
            icnt_to_l2_entries: 32,
            l2_to_dram_entries: 32,
            page_policy: PagePolicy::Open,
        }
    }
}

/// Address-mapping scheme selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddressMapConfig {
    /// Bit-sliced mapping described by a pattern string over the address
    /// bits above the DRAM-word offset, most-significant bit first, using
    /// `R` (row), `B` (bank), `C` (column), and `D` (channel).
    ///
    /// Table I's layout is `RRRRRRRRRRRRRBBBCCCBDDDDDCCC`.
    BitPattern(String),
    /// Pseudo-random channel hashing in the spirit of I-poly (Rau, ISCA
    /// 1991): channel bits are XOR-folded from higher address bits. The
    /// paper turns this *off* for PIM programmability; we keep it available
    /// for ablations.
    IPolyHash,
}

impl AddressMapConfig {
    /// The Table I bit layout.
    pub fn table1() -> Self {
        AddressMapConfig::BitPattern("RRRRRRRRRRRRRBBBCCCBDDDDDCCC".to_owned())
    }
}

impl Default for AddressMapConfig {
    fn default() -> Self {
        AddressMapConfig::table1()
    }
}

/// Which DRAM backend a [`SystemConfig`] was configured for.
///
/// This is deliberately *pure data*: the name↔kind↔builder mapping, the
/// per-backend presets, and every `match` over these variants live in the
/// `pimsim-dram` backend registry (`pimsim_dram::backend`), mirroring how
/// `PolicyKind` is only interpreted by `pimsim_core::policy::registry`.
/// Crates outside `pimsim-dram` carry the kind around opaquely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DramBackendKind {
    /// The paper's HBM substrate (Table I). The default backend; a
    /// `SystemConfig::default()` is an HBM system.
    #[default]
    Hbm,
    /// LPDDR5X-PIM: per-rank PIM units modeled rank-as-subchannel, with
    /// LPDDR5X geometry and timing ([`TimingPreset::Lpddr5xPim`]).
    Lp5x {
        /// Ranks per physical channel; each rank is simulated as its own
        /// channel (its own PIM units, row buffers, and timing state).
        ranks: usize,
    },
}

/// Full system configuration. `SystemConfig::default()` reproduces Table I.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SystemConfig {
    /// GPU core parameters.
    pub gpu: GpuConfig,
    /// Interconnect parameters.
    pub noc: NocConfig,
    /// L2 cache parameters.
    pub cache: CacheConfig,
    /// DRAM organization and timing.
    pub dram: DramConfig,
    /// DRAM timing parameters.
    pub timing: DramTiming,
    /// Memory-controller queues.
    pub mc: McConfig,
    /// Address-mapping scheme.
    pub addr_map: AddressMapConfig,
    /// Which DRAM backend `dram`/`timing`/`addr_map` were configured for.
    /// Set by the backend registry (`pimsim_dram::backend::configure`);
    /// defaults to HBM, matching the Table I defaults of the other fields.
    pub dram_backend: DramBackendKind,
}

/// Error returned by [`SystemConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateConfigError(String);

impl std::fmt::Display for ValidateConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for ValidateConfigError {}

impl SystemConfig {
    /// Checks internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateConfigError`] naming the first offending field
    /// when any structural parameter is zero, non-power-of-two where a
    /// power of two is required, or mutually inconsistent (e.g. banks not
    /// divisible by bank groups).
    pub fn validate(&self) -> Result<(), ValidateConfigError> {
        fn err(msg: impl Into<String>) -> Result<(), ValidateConfigError> {
            Err(ValidateConfigError(msg.into()))
        }
        if self.gpu.num_sms == 0 {
            return err("gpu.num_sms must be > 0");
        }
        if self.gpu.core_clock_mhz <= 0.0 || self.dram.clock_mhz <= 0.0 {
            return err("clock frequencies must be positive");
        }
        if self.dram.channels == 0 || !self.dram.channels.is_power_of_two() {
            return err("dram.channels must be a nonzero power of two");
        }
        if self.dram.banks == 0 || !self.dram.banks.is_power_of_two() {
            return err("dram.banks must be a nonzero power of two");
        }
        if self.dram.banks > 64 {
            // The memory controller tracks banks in 64-bit masks.
            return err("dram.banks must be at most 64");
        }
        if self.dram.bank_groups == 0 || !self.dram.banks.is_multiple_of(self.dram.bank_groups) {
            return err("dram.banks must be divisible by dram.bank_groups");
        }
        if !self.dram.rows_per_bank.is_power_of_two() || !self.dram.cols_per_row.is_power_of_two() {
            return err("rows_per_bank and cols_per_row must be powers of two");
        }
        if self.dram.pim_fus_per_channel == 0
            || !self
                .dram
                .banks
                .is_multiple_of(self.dram.pim_fus_per_channel)
        {
            return err("dram.banks must be divisible by dram.pim_fus_per_channel");
        }
        if self.dram.pim_rf_entries == 0 {
            return err("dram.pim_rf_entries must be > 0");
        }
        if self.cache.line_bytes == 0 || !self.cache.line_bytes.is_power_of_two() {
            return err("cache.line_bytes must be a nonzero power of two");
        }
        if self.cache.ways == 0 || self.cache.total_bytes == 0 {
            return err("cache geometry must be nonzero");
        }
        let slice_bytes = self.cache.total_bytes / self.dram.channels;
        if slice_bytes / (self.cache.line_bytes * self.cache.ways) == 0 {
            return err("cache slice too small for one set");
        }
        if self.noc.input_queue_entries < self.noc.vc_mode.vc_count() {
            return err("noc.input_queue_entries must cover every VC");
        }
        if self.noc.islip_iterations == 0 {
            return err("noc.islip_iterations must be >= 1");
        }
        if self.timing.t_refi > 0 && self.timing.t_refi <= self.timing.t_rfc {
            return err("timing.t_refi must exceed timing.t_rfc (else refresh livelocks)");
        }
        if self.mc.mem_q_entries == 0 || self.mc.pim_q_entries == 0 {
            return err("mc queues must be nonzero");
        }
        if self.mc.icnt_to_l2_entries < self.noc.vc_mode.vc_count()
            || self.mc.l2_to_dram_entries < self.noc.vc_mode.vc_count()
        {
            return err("partition staging queues must cover every VC");
        }
        if let AddressMapConfig::BitPattern(p) = &self.addr_map {
            let (r, b, c, d) = pattern_counts(p);
            if r + b + c + d != p.len() {
                return err("address map pattern may only contain R/B/C/D");
            }
            if (1usize << d) != self.dram.channels {
                return err("address map channel bits do not match dram.channels");
            }
            if (1usize << b) != self.dram.banks {
                return err("address map bank bits do not match dram.banks");
            }
            if (1u64 << c) != u64::from(self.dram.cols_per_row) {
                return err("address map column bits do not match dram.cols_per_row");
            }
            if (1u64 << r) < u64::from(self.dram.rows_per_bank) {
                return err("address map row bits cannot index rows_per_bank");
            }
        }
        Ok(())
    }

    /// DRAM-word (atom) size in bytes implied by the cache line size.
    pub fn dram_word_bytes(&self) -> usize {
        self.cache.line_bytes
    }

    /// SMs a PIM kernel occupies: one warp per channel,
    /// `gpu.pim_warps_per_sm` warps to an SM (8 on Table I's 32 channels).
    pub fn pim_sms(&self) -> usize {
        self.dram.channels / self.gpu.pim_warps_per_sm
    }

    /// SMs the GPU kernel of a co-execution takes: every SM the PIM
    /// kernel beside it leaves (72 of Table I's 80).
    pub fn coexec_gpu_sms(&self) -> usize {
        self.gpu.num_sms - self.pim_sms()
    }

    /// Ratio of DRAM clock to GPU clock, used by the two-domain stepper.
    pub fn dram_per_gpu_cycle(&self) -> f64 {
        self.dram.clock_mhz / self.gpu.core_clock_mhz
    }

    /// The DRAM:GPU clock ratio as an exact integer rational
    /// `(numerator, denominator)`, reduced to lowest terms. The two-domain
    /// stepper accumulates `numerator` per GPU cycle and steps the DRAM
    /// whenever the accumulator crosses `denominator`; because the
    /// arithmetic is integral, advancing `n` GPU cycles in one jump yields
    /// exactly the same DRAM-cycle schedule as `n` single steps — a
    /// property the f64 ratio cannot guarantee and which the event-driven
    /// fast-forward path relies on.
    ///
    /// Clocks are rounded to kHz, which is exact for every real HBM/GPU
    /// clock spec we model (Table I: 850 MHz / 1132 MHz).
    pub fn dram_clock_ratio(&self) -> (u64, u64) {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let (mut num, mut den) = (
            (self.dram.clock_mhz * 1000.0).round() as u64,
            (self.gpu.core_clock_mhz * 1000.0).round() as u64,
        );
        let gcd = {
            let (mut a, mut b) = (num, den);
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a.max(1)
        };
        num /= gcd;
        den /= gcd;
        (num, den)
    }
}

fn pattern_counts(p: &str) -> (usize, usize, usize, usize) {
    let mut r = 0;
    let mut b = 0;
    let mut c = 0;
    let mut d = 0;
    for ch in p.chars() {
        match ch {
            'R' => r += 1,
            'B' => b += 1,
            'C' => c += 1,
            'D' => d += 1,
            _ => {}
        }
    }
    (r, b, c, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_table1_and_valid() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.gpu.num_sms, 80);
        assert_eq!(cfg.dram.channels, 32);
        assert_eq!(cfg.dram.banks, 16);
        assert_eq!(cfg.timing.t_rcd, 12);
        assert_eq!(cfg.timing.t_ras, 28);
        assert_eq!(cfg.mc.mem_q_entries, 64);
        assert_eq!(cfg.noc.input_queue_entries, 512);
        cfg.validate().expect("Table I defaults must validate");
    }

    #[test]
    fn vc_mode_labels() {
        assert_eq!(VcMode::Shared.label(), "VC1");
        assert_eq!(VcMode::SplitPim.label(), "VC2");
        assert_eq!(VcMode::Shared.vc_count(), 1);
        assert_eq!(VcMode::SplitPim.vc_count(), 2);
    }

    #[test]
    fn validation_rejects_zero_sms() {
        let mut cfg = SystemConfig::default();
        cfg.gpu.num_sms = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_mismatched_channel_bits() {
        let mut cfg = SystemConfig::default();
        cfg.dram.channels = 16; // pattern still encodes 5 channel bits
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_non_power_of_two_banks() {
        let mut cfg = SystemConfig::default();
        cfg.dram.banks = 12;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_more_banks_than_the_controller_masks_hold() {
        let mut cfg = SystemConfig::default();
        cfg.dram.banks = 128;
        let e = cfg
            .validate()
            .expect_err("128 banks exceed the 64-bit masks");
        assert!(e.to_string().contains("at most 64"), "{e}");
    }

    #[test]
    fn validation_rejects_bad_pattern_chars() {
        let cfg = SystemConfig {
            addr_map: AddressMapConfig::BitPattern("RRXX".into()),
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn clock_ratio_matches_table1() {
        let cfg = SystemConfig::default();
        let r = cfg.dram_per_gpu_cycle();
        assert!((r - 850.0 / 1132.0).abs() < 1e-12);
    }

    #[test]
    fn integer_clock_ratio_is_reduced_and_consistent() {
        let cfg = SystemConfig::default();
        let (num, den) = cfg.dram_clock_ratio();
        // gcd(850_000, 1_132_000) = 2_000.
        assert_eq!((num, den), (425, 566));
        let f = cfg.dram_per_gpu_cycle();
        assert!((num as f64 / den as f64 - f).abs() < 1e-12);
        // Jumping n cycles must equal n single steps for any accumulator.
        let (mut acc_a, mut steps_a) = (0u64, 0u64);
        for _ in 0..10_000u64 {
            acc_a += num;
            while acc_a >= den {
                acc_a -= den;
                steps_a += 1;
            }
        }
        let total = 10_000u64 * num;
        assert_eq!(steps_a, total / den);
        assert_eq!(acc_a, total % den);
    }

    #[test]
    fn validation_rejects_refresh_livelock() {
        let mut cfg = SystemConfig::default();
        cfg.timing.t_refi = 50;
        cfg.timing.t_rfc = 100;
        assert!(cfg.validate().is_err());
        cfg.timing = DramTiming::with_fidelity_extensions();
        cfg.validate().unwrap();
    }

    #[test]
    fn ipoly_variant_validates() {
        let cfg = SystemConfig {
            addr_map: AddressMapConfig::IPolyHash,
            ..Default::default()
        };
        cfg.validate().unwrap();
    }
}
