//! Memory-trace capture and replay.
//!
//! Real GPU simulators consume instruction or memory traces; this module
//! provides the memory-trace half for ours:
//!
//! * [`TraceRecorder`] wraps any [`KernelModel`] and records every request
//!   it issues (slot, issue cycle, kind, address);
//! * [`TraceKernel`] replays a recorded trace as a kernel model, pacing
//!   each request no earlier than its recorded cycle;
//! * traces serialize to a simple line-oriented text format
//!   (`slot cycle r|w|p addr`), stable for external tooling.
//!
//! Replaying a MEM trace through the simulator is deterministic and
//! reproduces the recorded kernel's traffic exactly, so third-party
//! traces (e.g. converted from real profilers) can stand in for the
//! synthetic models.

use std::collections::VecDeque;
use std::io::{BufRead, Write};

use pimsim_types::{Cycle, PhysAddr, RequestId, RequestKind};

use crate::kernel::{IssuedRequest, KernelModel};

/// One recorded memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// SM slot that issued the request.
    pub slot: u32,
    /// GPU cycle at issue.
    pub cycle: Cycle,
    /// The request (kind + address).
    pub kind: RequestKind,
    /// Address (also carried for PIM records).
    pub addr: u64,
}

/// Error parsing a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number.
    pub line: usize,
    /// Reason.
    pub reason: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error on line {}: {}",
            self.line, self.reason
        )
    }
}

impl std::error::Error for ParseTraceError {}

/// Serializes records to the text format (one `slot cycle kind addr` line
/// each; kind is `r`, `w`). PIM records are rejected — PIM kernels carry
/// structural commands that a flat trace cannot express.
///
/// # Errors
///
/// Returns I/O errors from the writer, or `InvalidInput` for PIM records.
pub fn write_trace<W: Write>(mut w: W, records: &[TraceRecord]) -> std::io::Result<()> {
    for r in records {
        let kind = match r.kind {
            RequestKind::MemRead => 'r',
            RequestKind::MemWrite => 'w',
            RequestKind::Pim(_) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "PIM requests cannot be serialized to a flat memory trace",
                ))
            }
        };
        writeln!(w, "{} {} {} {:#x}", r.slot, r.cycle, kind, r.addr)?;
    }
    Ok(())
}

/// Parses the text format produced by [`write_trace`].
///
/// # Errors
///
/// Returns [`ParseTraceError`] naming the offending line.
pub fn read_trace<R: BufRead>(r: R) -> Result<Vec<TraceRecord>, ParseTraceError> {
    let mut out = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let line = line.map_err(|e| ParseTraceError {
            line: i + 1,
            reason: e.to_string(),
        })?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |reason: &str| ParseTraceError {
            line: i + 1,
            reason: reason.to_owned(),
        };
        let mut parts = line.split_whitespace();
        let slot: u32 = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| err("missing/invalid slot"))?;
        let cycle: u64 = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| err("missing/invalid cycle"))?;
        let kind = match parts.next() {
            Some("r") => RequestKind::MemRead,
            Some("w") => RequestKind::MemWrite,
            _ => return Err(err("kind must be r or w")),
        };
        let addr_s = parts.next().ok_or_else(|| err("missing address"))?;
        let addr = if let Some(hex) = addr_s.strip_prefix("0x") {
            u64::from_str_radix(hex, 16).map_err(|_| err("invalid hex address"))?
        } else {
            addr_s.parse().map_err(|_| err("invalid address"))?
        };
        if parts.next().is_some() {
            return Err(err("trailing fields"));
        }
        out.push(TraceRecord {
            slot,
            cycle,
            kind,
            addr,
        });
    }
    Ok(out)
}

/// Wraps a kernel model and records every issued request.
pub struct TraceRecorder {
    inner: Box<dyn KernelModel>,
    records: Vec<TraceRecord>,
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("inner", &self.inner.name())
            .field("records", &self.records.len())
            .finish()
    }
}

impl TraceRecorder {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn KernelModel>) -> Self {
        TraceRecorder {
            inner,
            records: Vec::new(),
        }
    }

    /// The records captured so far, in issue order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Consumes the recorder, returning the captured trace.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }
}

impl KernelModel for TraceRecorder {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn num_slots(&self) -> usize {
        self.inner.num_slots()
    }

    fn try_issue(&mut self, slot: usize, now: Cycle, id: RequestId) -> Option<IssuedRequest> {
        let issued = self.inner.try_issue(slot, now, id)?;
        self.records.push(TraceRecord {
            slot: slot as u32,
            cycle: now,
            kind: issued.kind,
            addr: issued.addr.0,
        });
        Some(issued)
    }

    fn on_complete(&mut self, slot: usize, id: RequestId, now: Cycle) {
        self.inner.on_complete(slot, id, now);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn total_requests(&self) -> u64 {
        self.inner.total_requests()
    }

    fn reset(&mut self) {
        // Recording continues across runs; records from later runs append.
        self.inner.reset();
    }

    fn next_issue_cycle(&self, slot: usize, now: Cycle) -> Option<Cycle> {
        self.inner.next_issue_cycle(slot, now)
    }
}

/// Replays a recorded MEM trace as a kernel model.
///
/// Each slot's records are issued in order, no earlier than their recorded
/// cycle (so a contended replay can only stretch, never compress, the
/// original timing).
#[derive(Debug, Clone)]
pub struct TraceKernel {
    name: String,
    slots: Vec<VecDeque<TraceRecord>>,
    issued: u64,
    completed: u64,
    total: u64,
    original: Vec<TraceRecord>,
}

impl TraceKernel {
    /// Builds a replay kernel over `num_slots` SM slots.
    ///
    /// # Panics
    ///
    /// Panics if a record's slot is out of range, records within a slot
    /// are not cycle-ordered, or the trace contains PIM records.
    pub fn new(name: impl Into<String>, num_slots: usize, records: Vec<TraceRecord>) -> Self {
        let mut slots: Vec<VecDeque<TraceRecord>> = vec![VecDeque::new(); num_slots];
        for r in &records {
            assert!(
                !matches!(r.kind, RequestKind::Pim(_)),
                "flat traces cannot carry PIM requests"
            );
            let s = r.slot as usize;
            assert!(s < num_slots, "record slot {s} out of range");
            if let Some(prev) = slots[s].back() {
                assert!(
                    prev.cycle <= r.cycle,
                    "slot {s} records must be cycle-ordered"
                );
            }
            slots[s].push_back(*r);
        }
        let total = records.len() as u64;
        TraceKernel {
            name: name.into(),
            slots,
            issued: 0,
            completed: 0,
            total,
            original: records,
        }
    }
}

impl KernelModel for TraceKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_slots(&self) -> usize {
        self.slots.len()
    }

    fn try_issue(&mut self, slot: usize, now: Cycle, _id: RequestId) -> Option<IssuedRequest> {
        let head = self.slots[slot].front()?;
        if head.cycle > now {
            return None;
        }
        let r = self.slots[slot].pop_front().expect("peeked");
        self.issued += 1;
        Some(IssuedRequest {
            kind: r.kind,
            addr: PhysAddr(r.addr),
        })
    }

    fn on_complete(&mut self, _slot: usize, _id: RequestId, _now: Cycle) {
        self.completed += 1;
    }

    fn is_done(&self) -> bool {
        self.issued == self.total && self.completed == self.total
    }

    fn total_requests(&self) -> u64 {
        self.total
    }

    fn reset(&mut self) {
        let records = self.original.clone();
        let n = self.slots.len();
        *self = TraceKernel::new(std::mem::take(&mut self.name), n, records);
    }

    fn next_issue_cycle(&self, slot: usize, now: Cycle) -> Option<Cycle> {
        // The slot's next record fires at its recorded cycle, or
        // immediately if the replay is already running behind.
        self.slots[slot].front().map(|r| r.cycle.max(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{GpuKernelParams, SyntheticGpuKernel};

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                slot: 0,
                cycle: 0,
                kind: RequestKind::MemRead,
                addr: 0x40,
            },
            TraceRecord {
                slot: 0,
                cycle: 5,
                kind: RequestKind::MemWrite,
                addr: 0x80,
            },
            TraceRecord {
                slot: 1,
                cycle: 2,
                kind: RequestKind::MemRead,
                addr: 0x1000,
            },
        ]
    }

    #[test]
    fn text_roundtrip_preserves_records() {
        let recs = sample_records();
        let mut buf = Vec::new();
        write_trace(&mut buf, &recs).unwrap();
        let parsed = read_trace(buf.as_slice()).unwrap();
        assert_eq!(parsed, recs);
    }

    #[test]
    fn parser_skips_comments_and_blank_lines() {
        let text = "# a comment\n\n0 3 r 0x20\n";
        let recs = read_trace(text.as_bytes()).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].cycle, 3);
    }

    #[test]
    fn parser_reports_line_numbers() {
        let text = "0 0 r 0x20\n0 1 x 0x40\n";
        let e = read_trace(text.as_bytes()).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.reason.contains("kind"));
    }

    #[test]
    fn replay_paces_by_recorded_cycle() {
        let mut k = TraceKernel::new("t", 2, sample_records());
        assert_eq!(k.total_requests(), 3);
        // Slot 0 at cycle 0: first record fires; second waits for cycle 5.
        assert!(k.try_issue(0, 0, RequestId(0)).is_some());
        assert!(k.try_issue(0, 2, RequestId(1)).is_none());
        assert!(k.try_issue(0, 5, RequestId(1)).is_some());
        // Slot 1 record paced to cycle 2.
        assert!(k.try_issue(1, 1, RequestId(2)).is_none());
        let r = k.try_issue(1, 2, RequestId(2)).unwrap();
        assert_eq!(r.addr.0, 0x1000);
        for _ in 0..3 {
            k.on_complete(0, RequestId(0), 10);
        }
        assert!(k.is_done());
    }

    #[test]
    fn issue_bounds_are_lower_bounds() {
        let mut k = TraceKernel::new("t", 2, sample_records());
        assert_eq!(k.next_issue_cycle(0, 1), Some(1), "slot 0 runs behind");
        assert_eq!(k.next_issue_cycle(1, 0), Some(2));
        let issued = crate::kernel::tests::assert_issue_bounds_hold(&mut k, 20, 3);
        assert_eq!(issued, 3);
        assert_eq!(k.next_issue_cycle(1, 20), None, "slot 1 replayed its trace");
        // The recorder forwards the wrapped model's bounds.
        let mut rec = TraceRecorder::new(Box::new(TraceKernel::new("t", 2, sample_records())));
        assert_eq!(
            crate::kernel::tests::assert_issue_bounds_hold(&mut rec, 20, 3),
            3
        );
        assert_eq!(rec.next_issue_cycle(0, 20), None);
    }

    #[test]
    fn reset_replays_from_the_start() {
        let mut k = TraceKernel::new("t", 2, sample_records());
        let a = k.try_issue(0, 0, RequestId(0)).unwrap();
        k.reset();
        let b = k.try_issue(0, 0, RequestId(1)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn recorder_captures_exactly_what_was_issued() {
        let params = GpuKernelParams {
            name: "src".into(),
            total_requests: 40,
            issue_interval: 2,
            read_fraction: 0.5,
            footprint_bytes: 1 << 16,
            row_locality: 0.7,
            l2_reuse: 0.1,
            streams_per_slot: 2,
            seed: 3,
        };
        let mut rec = TraceRecorder::new(Box::new(SyntheticGpuKernel::new(params, 2)));
        let mut id = 0u64;
        let mut issued = Vec::new();
        for now in 0..500 {
            for slot in 0..2 {
                if let Some(r) = rec.try_issue(slot, now, RequestId(id)) {
                    issued.push((slot as u32, now, r.kind, r.addr.0));
                    rec.on_complete(slot, RequestId(id), now);
                    id += 1;
                }
            }
            if rec.is_done() {
                break;
            }
        }
        assert!(rec.is_done());
        let records = rec.into_records();
        assert_eq!(records.len(), issued.len());
        for (r, (slot, cycle, kind, addr)) in records.iter().zip(&issued) {
            assert_eq!(
                (r.slot, r.cycle, r.kind, r.addr),
                (*slot, *cycle, *kind, *addr)
            );
        }
        // And the capture replays identically.
        let mut replay = TraceKernel::new("replay", 2, records);
        let mut id2 = 0u64;
        for now in 0..500 {
            for slot in 0..2 {
                if let Some(r) = replay.try_issue(slot, now, RequestId(id2)) {
                    let (s0, c0, k0, a0) = issued[id2 as usize];
                    assert_eq!((slot as u32, now, r.kind, r.addr.0), (s0, c0, k0, a0));
                    replay.on_complete(slot, RequestId(id2), now);
                    id2 += 1;
                }
            }
            if replay.is_done() {
                break;
            }
        }
        assert!(replay.is_done());
    }

    #[test]
    #[should_panic(expected = "cycle-ordered")]
    fn out_of_order_slot_records_rejected() {
        let recs = vec![
            TraceRecord {
                slot: 0,
                cycle: 9,
                kind: RequestKind::MemRead,
                addr: 0,
            },
            TraceRecord {
                slot: 0,
                cycle: 3,
                kind: RequestKind::MemRead,
                addr: 0,
            },
        ];
        let _ = TraceKernel::new("t", 1, recs);
    }
}
