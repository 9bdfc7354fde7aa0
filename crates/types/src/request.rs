//! Memory and PIM request types.
//!
//! The simulator distinguishes two request families, following the paper:
//!
//! * **MEM requests** — regular GPU loads/stores. They traverse the
//!   interconnect, are filtered by the L2 cache, and are serviced by the
//!   memory controller in *MEM mode* using per-bank scheduling.
//! * **PIM requests** — fine-grained PIM operations encoded as
//!   cache-streaming stores. They bypass all caches and are serviced in
//!   *PIM mode*, where a single request executes on **all banks of a
//!   channel in lock-step**.

use crate::Cycle;

/// A physical byte address.
///
/// The DRAM address mapper (in `pimsim-dram`) decodes this into a
/// [`DecodedAddr`] according to the configured bit layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

impl std::fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl std::fmt::LowerHex for PhysAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for PhysAddr {
    fn from(v: u64) -> Self {
        PhysAddr(v)
    }
}

/// A physical address decoded into DRAM coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DecodedAddr {
    /// Memory channel index.
    pub channel: u16,
    /// Bank index within the channel.
    pub bank: u16,
    /// Row index within the bank.
    pub row: u32,
    /// Column (DRAM-word) index within the row.
    pub col: u32,
}

/// Monotonically increasing request identifier, unique within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// Identifies which co-executing application (kernel) a request belongs to.
///
/// In the paper's scenarios at most two applications co-execute: a regular
/// GPU kernel and a PIM kernel. The type is a small integer so other
/// pairings (e.g. two GPU kernels in Figure 5) are expressible too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AppId(pub u8);

impl AppId {
    /// Conventional ID for the regular (load/store) GPU kernel.
    pub const GPU: AppId = AppId(0);
    /// Conventional ID for the PIM kernel.
    pub const PIM: AppId = AppId(1);

    /// Returns the underlying index, usable for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for AppId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "app{}", self.0)
    }
}

/// The memory controller's servicing mode (Section II-A of the paper).
///
/// MEM and PIM requests cannot be serviced concurrently; the controller's
/// arbiter switches between the two modes, draining in-flight requests at
/// each switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Servicing regular load/store requests from the MEM queue.
    Mem,
    /// Servicing PIM requests from the PIM queue, all banks in lock-step.
    Pim,
}

impl Mode {
    /// The other mode.
    pub fn other(self) -> Mode {
        match self {
            Mode::Mem => Mode::Pim,
            Mode::Pim => Mode::Mem,
        }
    }
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mode::Mem => write!(f, "MEM"),
            Mode::Pim => write!(f, "PIM"),
        }
    }
}

/// The kind of in-memory operation a PIM request performs (Figure 3).
///
/// All three kinds are column accesses from the DRAM's perspective; they
/// differ in how they use the PIM functional unit's register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PimOpKind {
    /// Load a DRAM word from the open row into the register file.
    RfLoad,
    /// SIMD compute: combine the open row's DRAM word with a register file
    /// entry (e.g. add) and write the result back to the register file.
    RfCompute,
    /// Store a register file entry into the open row.
    RfStore,
}

impl std::fmt::Display for PimOpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PimOpKind::RfLoad => write!(f, "rf_load"),
            PimOpKind::RfCompute => write!(f, "rf_compute"),
            PimOpKind::RfStore => write!(f, "rf_store"),
        }
    }
}

/// A fine-grained PIM operation targeting all banks of one channel.
///
/// PIM kernels have a *block* structure: a block is a run of consecutive
/// PIM operations to the same row, separated from the next block by a
/// precharge + activate. Blocks must execute in order for correctness
/// (their operations communicate through the register file), which the
/// memory controller guarantees by servicing the PIM queue FCFS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PimCommand {
    /// Operation kind (load / compute / store relative to the RF).
    pub op: PimOpKind,
    /// Target memory channel. The op executes on all banks of this channel.
    pub channel: u16,
    /// Target row, identical across banks (lock-step execution).
    pub row: u32,
    /// Column (DRAM word) within the row.
    pub col: u16,
    /// Register file entry used by the op.
    pub rf_entry: u8,
    /// `true` for the first operation of a block: the controller must
    /// precharge and activate `row` on all banks before issuing it.
    pub block_start: bool,
    /// Monotonically increasing block number within the issuing kernel,
    /// used by ordering assertions.
    pub block_id: u64,
}

/// What a request asks the memory subsystem to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Regular load. Filtered by the L2 cache; returns data to the SM.
    MemRead,
    /// Regular store. Write-allocated in the L2 cache.
    MemWrite,
    /// Fine-grained PIM operation (a cache-streaming store at the SM);
    /// bypasses all caches.
    Pim(PimCommand),
}

impl RequestKind {
    /// `true` for regular load/store requests.
    pub fn is_mem(&self) -> bool {
        matches!(self, RequestKind::MemRead | RequestKind::MemWrite)
    }

    /// `true` for PIM requests.
    pub fn is_pim(&self) -> bool {
        matches!(self, RequestKind::Pim(_))
    }

    /// The memory controller mode that services this request kind.
    pub fn mode(&self) -> Mode {
        if self.is_pim() {
            Mode::Pim
        } else {
            Mode::Mem
        }
    }

    /// The PIM command, if this is a PIM request.
    pub fn pim(&self) -> Option<&PimCommand> {
        match self {
            RequestKind::Pim(cmd) => Some(cmd),
            _ => None,
        }
    }
}

/// A memory-subsystem request, from SM issue to completion.
///
/// Requests are created by the GPU model, carried through the interconnect
/// and cache as opaque payloads, and consumed by the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Unique identifier (issue order at the GPU).
    pub id: RequestId,
    /// Owning application.
    pub app: AppId,
    /// What to do.
    pub kind: RequestKind,
    /// Physical address (meaningful for MEM requests; for PIM requests the
    /// target is in the embedded [`PimCommand`] and this field holds a
    /// synthesized address for bookkeeping).
    pub addr: PhysAddr,
    /// Interconnect injection port (SM index) the request entered from;
    /// replies are routed back to this port.
    pub src_port: u16,
    /// GPU cycle at which the SM issued the request.
    pub issued_at: Cycle,
}

impl Request {
    /// Creates a new request.
    pub fn new(
        id: RequestId,
        app: AppId,
        kind: RequestKind,
        addr: PhysAddr,
        src_port: u16,
        issued_at: Cycle,
    ) -> Self {
        Request {
            id,
            app,
            kind,
            addr,
            src_port,
            issued_at,
        }
    }

    /// The servicing mode for this request.
    pub fn mode(&self) -> Mode {
        self.kind.mode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_other_is_involutive() {
        assert_eq!(Mode::Mem.other(), Mode::Pim);
        assert_eq!(Mode::Pim.other(), Mode::Mem);
        assert_eq!(Mode::Mem.other().other(), Mode::Mem);
    }

    #[test]
    fn request_kind_classification() {
        assert!(RequestKind::MemRead.is_mem());
        assert!(RequestKind::MemWrite.is_mem());
        assert!(!RequestKind::MemRead.is_pim());
        let cmd = PimCommand {
            op: PimOpKind::RfLoad,
            channel: 2,
            row: 7,
            col: 0,
            rf_entry: 0,
            block_start: true,
            block_id: 0,
        };
        let pim = RequestKind::Pim(cmd);
        assert!(pim.is_pim());
        assert!(!pim.is_mem());
        assert_eq!(pim.mode(), Mode::Pim);
        assert_eq!(pim.pim(), Some(&cmd));
        assert_eq!(RequestKind::MemRead.pim(), None);
    }

    #[test]
    fn request_constructor_preserves_fields() {
        let r = Request::new(
            RequestId(42),
            AppId::PIM,
            RequestKind::MemWrite,
            PhysAddr(0x1234),
            9,
            100,
        );
        assert_eq!(r.id, RequestId(42));
        assert_eq!(r.app, AppId::PIM);
        assert_eq!(r.addr.0, 0x1234);
        assert_eq!(r.src_port, 9);
        assert_eq!(r.issued_at, 100);
        assert_eq!(r.mode(), Mode::Mem);
    }

    #[test]
    fn display_impls_are_nonempty() {
        assert_eq!(format!("{}", Mode::Mem), "MEM");
        assert_eq!(format!("{}", Mode::Pim), "PIM");
        assert_eq!(format!("{}", AppId::GPU), "app0");
        assert_eq!(format!("{}", RequestId(3)), "req#3");
        assert_eq!(format!("{}", PhysAddr(0x10)), "0x10");
        assert_eq!(format!("{}", PimOpKind::RfCompute), "rf_compute");
    }
}
