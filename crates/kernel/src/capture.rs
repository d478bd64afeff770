//! Packet capture: a sink for simulated air traffic and LMP exchanges.
//!
//! The [`CaptureSink`] is the kernel-level collection point of the
//! observability layer: the channel's `Medium` taps it at transmission
//! registration and reception, and the simulator taps it at LMP PDU
//! dispatch. Records accumulate in dispatch order — the calendar order
//! both engines provably share — so a capture serialized to the btsnoop
//! file format (`btsim-trace::btsnoop`) is byte-identical across
//! engines.
//!
//! A disabled sink (the default) drops records behind a single branch,
//! so instrumentation stays unconditionally in the hot paths at zero
//! measurable cost. Observers never draw from any random stream.
//!
//! # Memory behaviour
//!
//! Records grow without bound by default. Long captures can cap growth
//! with [`CaptureSink::set_record_cap`]: once the cap is reached further
//! records are counted as dropped (feeding the btsnoop cumulative-drops
//! field) instead of stored. Air payloads are truncated to
//! [`MAX_AIR_PAYLOAD`] bytes; the untruncated length survives in
//! [`CaptureRecord::orig_bits`].

use crate::time::SimTime;

/// Cap on the stored byte image of one air packet. A DH5 packet is 2871
/// bits (~359 bytes) on the air; storing the first 64 bytes keeps the
/// access code + header + payload start visible to dissectors while the
/// btsnoop original-length field preserves the true size.
pub const MAX_AIR_PAYLOAD: usize = 64;

/// Which way a captured packet was going.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureDir {
    /// Registered on the medium / handed down for transmission.
    Sent,
    /// Materialised at a receiver / handed up after decode.
    Received,
}

/// What layer a captured record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureKind {
    /// A raw air-bit image (access code + header + payload).
    Air,
    /// An LMP PDU crossing the link-manager boundary.
    Lmp,
}

/// One captured packet with its simulated-air verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaptureRecord {
    /// When the packet hit the air (TX) or was decoded (RX).
    pub at: SimTime,
    /// Direction relative to the originating device.
    pub dir: CaptureDir,
    /// Air-bit image or LMP PDU.
    pub kind: CaptureKind,
    /// Originating device index.
    pub device: usize,
    /// RF channel (0..79) for [`CaptureKind::Air`], the logical
    /// transport address for [`CaptureKind::Lmp`].
    pub channel: u8,
    /// A co-channel transmission overlapped this packet.
    pub collided: bool,
    /// A fixed-band interferer burst wiped this packet.
    pub jammed: bool,
    /// Untruncated payload size in bits (air-bit count, or 8x the PDU
    /// byte count for LMP records).
    pub orig_bits: usize,
    /// Payload bytes, truncated to [`MAX_AIR_PAYLOAD`] for air records.
    pub data: Vec<u8>,
}

/// Collects [`CaptureRecord`]s in dispatch order (see module docs).
///
/// # Examples
///
/// ```
/// use btsim_kernel::{CaptureDir, CaptureKind, CaptureRecord, CaptureSink, SimTime};
///
/// let mut sink = CaptureSink::enabled();
/// sink.push(CaptureRecord {
///     at: SimTime::from_us(625),
///     dir: CaptureDir::Sent,
///     kind: CaptureKind::Lmp,
///     device: 0,
///     channel: 1,
///     collided: false,
///     jammed: false,
///     orig_bits: 16,
///     data: vec![0x33, 0x01],
/// });
/// assert_eq!(sink.records().len(), 1);
/// assert_eq!(sink.dropped(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CaptureSink {
    enabled: bool,
    records: Vec<CaptureRecord>,
    /// `0` means unbounded.
    record_cap: usize,
    dropped: u64,
}

impl CaptureSink {
    /// A sink that stores records.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// A sink that drops everything (the hot-path default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether records are being stored.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Caps stored records at `cap` (`0` = unbounded). Records past the
    /// cap increment [`CaptureSink::dropped`] instead of growing memory.
    pub fn set_record_cap(&mut self, cap: usize) {
        self.record_cap = cap;
    }

    /// Stores one record (no-op when disabled; counted as dropped when
    /// the cap is reached). Air payloads are truncated to
    /// [`MAX_AIR_PAYLOAD`] bytes.
    pub fn push(&mut self, mut record: CaptureRecord) {
        if !self.enabled {
            return;
        }
        if self.record_cap != 0 && self.records.len() >= self.record_cap {
            self.dropped += 1;
            return;
        }
        if record.kind == CaptureKind::Air && record.data.len() > MAX_AIR_PAYLOAD {
            record.data.truncate(MAX_AIR_PAYLOAD);
        }
        self.records.push(record);
    }

    /// The stored records, in dispatch order.
    pub fn records(&self) -> &[CaptureRecord] {
        &self.records
    }

    /// Records dropped at the cap (never nonzero without a cap).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was stored.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

crate::snap_enum! {
    CaptureDir {
        0 => Sent,
        1 => Received,
    } else "capture direction tag out of range"
}

crate::snap_enum! {
    CaptureKind {
        0 => Air,
        1 => Lmp,
    } else "capture kind tag out of range"
}

crate::snap_struct! {
    CaptureRecord { at, dir, kind, device, channel, collided, jammed, orig_bits, data }
}

crate::snap_struct! { CaptureSink { enabled, records, record_cap, dropped } }

#[cfg(test)]
mod tests {
    use super::*;

    fn air_record(bytes: usize) -> CaptureRecord {
        CaptureRecord {
            at: SimTime::from_us(1),
            dir: CaptureDir::Sent,
            kind: CaptureKind::Air,
            device: 0,
            channel: 40,
            collided: false,
            jammed: true,
            orig_bits: bytes * 8,
            data: vec![0xAA; bytes],
        }
    }

    #[test]
    fn disabled_sink_drops_silently() {
        let mut sink = CaptureSink::disabled();
        sink.push(air_record(4));
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 0, "disabled is not the same as capped");
    }

    #[test]
    fn air_payloads_truncate_but_keep_orig_bits() {
        let mut sink = CaptureSink::enabled();
        sink.push(air_record(300));
        let r = &sink.records()[0];
        assert_eq!(r.data.len(), MAX_AIR_PAYLOAD);
        assert_eq!(r.orig_bits, 2400);
    }

    #[test]
    fn record_cap_counts_drops() {
        let mut sink = CaptureSink::enabled();
        sink.set_record_cap(2);
        for _ in 0..5 {
            sink.push(air_record(4));
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 3);
    }
}
