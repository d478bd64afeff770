//! Baseband packet formats: the paper's `TRANSMITTER` (composer) and
//! `RECEIVER` modules.
//!
//! A transmission carries an [`AirPacket`]: the sender's keys, header and
//! payload, or only the LAP of an ID packet. Its exact over-the-air bit
//! image is
//!
//! ```text
//! [access code 68/72] [header 54 = (10 info + 8 HEC) × FEC 1/3] [payload]
//! ```
//!
//! and [`Codec`] builds it only when a reception needs the bits: a
//! reception that drew no noise, has no collision mask and is heard under
//! the sender's own keys takes the sender's packet as its decode result
//! (see [`Codec::decode_reception`]).
//!
//! The payload chain is `payload header + data + CRC-16 → whitening →
//! FEC` with the whitening LFSR running continuously from the packet
//! header through the payload (spec v1.2 Baseband §6/§7). All ACL and SCO
//! packet types of the 2005-era standard are implemented: ID, NULL, POLL,
//! FHS, DM1/3/5, DH1/3/5, AUX1, HV1/2/3 and DV.

use std::ops::Range;

use btsim_coding::{crc, fec, hec, syncword, AirImage, BitVec, Whitener};
use btsim_kernel::{Snap, SnapReader, SnapWriter, SnapshotError};

use crate::address::BdAddr;
use crate::clock::ClkVal;

/// Fixed whitening seed used during inquiry/page control exchanges, where
/// the two sides do not yet share a piconet clock. The spec derives these
/// seeds from clock estimates exchanged in the procedure itself; using a
/// fixed seed is behaviourally equivalent for error statistics
/// (whitening is error-transparent). Documented in DESIGN.md.
pub const CONTROL_WHITEN_SEED: u8 = 0x3F;

/// Access-code-only slack: receptions at most this many bits longer than
/// an ID packet still parse as an ID.
const ID_SLACK_BITS: usize = 8;

/// Bits in the packet header on the air (18 × 3).
pub const HEADER_AIR_BITS: usize = 54;

/// A Bluetooth baseband packet type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketType {
    /// Access code only (inquiry/page trains and responses).
    Id,
    /// Header only; carries ARQ/flow information.
    Null,
    /// Header only; solicits a response.
    Poll,
    /// FHS: sender identity + clock, used in inquiry response and page.
    Fhs,
    /// 1-slot data, 2/3 FEC, CRC.
    Dm1,
    /// 1-slot data, no FEC, CRC.
    Dh1,
    /// 3-slot data, 2/3 FEC, CRC.
    Dm3,
    /// 3-slot data, no FEC, CRC.
    Dh3,
    /// 5-slot data, 2/3 FEC, CRC.
    Dm5,
    /// 5-slot data, no FEC, CRC.
    Dh5,
    /// 1-slot data, no FEC, no CRC.
    Aux1,
    /// SCO voice, 10 bytes, 1/3 FEC.
    Hv1,
    /// SCO voice, 20 bytes, 2/3 FEC.
    Hv2,
    /// SCO voice, 30 bytes, no FEC.
    Hv3,
    /// Combined data + voice.
    Dv,
}

impl PacketType {
    /// The 4-bit type code of the packet header.
    pub fn code(self) -> u8 {
        match self {
            PacketType::Null => 0b0000,
            PacketType::Poll => 0b0001,
            PacketType::Fhs => 0b0010,
            PacketType::Dm1 => 0b0011,
            PacketType::Dh1 => 0b0100,
            PacketType::Hv1 => 0b0101,
            PacketType::Hv2 => 0b0110,
            PacketType::Hv3 => 0b0111,
            PacketType::Dv => 0b1000,
            PacketType::Aux1 => 0b1001,
            PacketType::Dm3 => 0b1010,
            PacketType::Dh3 => 0b1011,
            PacketType::Dm5 => 0b1110,
            PacketType::Dh5 => 0b1111,
            PacketType::Id => unreachable!("ID packets have no header"),
        }
    }

    /// Decodes a 4-bit type code (codes 1100/1101 are undefined in v1.2).
    pub fn from_code(code: u8) -> Option<PacketType> {
        Some(match code & 0xF {
            0b0000 => PacketType::Null,
            0b0001 => PacketType::Poll,
            0b0010 => PacketType::Fhs,
            0b0011 => PacketType::Dm1,
            0b0100 => PacketType::Dh1,
            0b0101 => PacketType::Hv1,
            0b0110 => PacketType::Hv2,
            0b0111 => PacketType::Hv3,
            0b1000 => PacketType::Dv,
            0b1001 => PacketType::Aux1,
            0b1010 => PacketType::Dm3,
            0b1011 => PacketType::Dh3,
            0b1110 => PacketType::Dm5,
            0b1111 => PacketType::Dh5,
            _ => return None,
        })
    }

    /// Number of slots the packet occupies.
    pub fn slots(self) -> u8 {
        match self {
            PacketType::Dm3 | PacketType::Dh3 => 3,
            PacketType::Dm5 | PacketType::Dh5 => 5,
            _ => 1,
        }
    }

    /// Maximum user payload bytes (excluding payload header and CRC).
    pub fn max_user_bytes(self) -> usize {
        match self {
            PacketType::Dm1 => 17,
            PacketType::Dh1 => 27,
            PacketType::Dm3 => 121,
            PacketType::Dh3 => 183,
            PacketType::Dm5 => 224,
            PacketType::Dh5 => 339,
            PacketType::Aux1 => 29,
            PacketType::Hv1 => 10,
            PacketType::Hv2 => 20,
            PacketType::Hv3 => 30,
            PacketType::Dv => 9,
            _ => 0,
        }
    }

    /// Whether the payload carries a CRC (and participates in ARQ).
    pub fn has_crc(self) -> bool {
        matches!(
            self,
            PacketType::Fhs
                | PacketType::Dm1
                | PacketType::Dh1
                | PacketType::Dm3
                | PacketType::Dh3
                | PacketType::Dm5
                | PacketType::Dh5
                | PacketType::Dv
        )
    }

    /// Whether this is an ACL data packet with a payload header.
    pub fn is_acl_data(self) -> bool {
        matches!(
            self,
            PacketType::Dm1
                | PacketType::Dh1
                | PacketType::Dm3
                | PacketType::Dh3
                | PacketType::Dm5
                | PacketType::Dh5
                | PacketType::Aux1
        )
    }

    /// Whether the payload is protected by the 2/3 FEC.
    pub fn fec23(self) -> bool {
        matches!(
            self,
            PacketType::Dm1 | PacketType::Dm3 | PacketType::Dm5 | PacketType::Hv2
        )
    }

    /// Payload header length in bytes (0 for non-ACL types).
    pub fn payload_header_bytes(self) -> usize {
        match self {
            PacketType::Dm1 | PacketType::Dh1 | PacketType::Aux1 => 1,
            PacketType::Dm3 | PacketType::Dh3 | PacketType::Dm5 | PacketType::Dh5 => 2,
            _ => 0,
        }
    }
}

/// Logical link identifier carried in ACL payload headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Llid {
    /// Continuation fragment of an L2CAP message.
    Continuation,
    /// Start of an L2CAP message (or unfragmented message).
    Start,
    /// LMP message.
    Lmp,
}

impl Llid {
    /// The 2-bit code.
    pub fn code(self) -> u8 {
        match self {
            Llid::Continuation => 0b01,
            Llid::Start => 0b10,
            Llid::Lmp => 0b11,
        }
    }

    /// Decodes the 2-bit code (00 is undefined).
    pub fn from_code(code: u8) -> Option<Llid> {
        match code & 0b11 {
            0b01 => Some(Llid::Continuation),
            0b10 => Some(Llid::Start),
            0b11 => Some(Llid::Lmp),
            _ => None,
        }
    }
}

/// The 18-bit packet header (before FEC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Logical transport address (3 bits; 0 = broadcast).
    pub lt_addr: u8,
    /// Packet type.
    pub ptype: PacketType,
    /// Flow control bit.
    pub flow: bool,
    /// ARQ acknowledgement bit.
    pub arqn: bool,
    /// ARQ sequence bit.
    pub seqn: bool,
}

impl Header {
    fn info_bits(&self) -> u16 {
        // Transmission order: LT_ADDR(3) TYPE(4) FLOW ARQN SEQN.
        let mut v = (self.lt_addr as u16) & 0b111;
        v |= (self.ptype.code() as u16) << 3;
        v |= (self.flow as u16) << 7;
        v |= (self.arqn as u16) << 8;
        v |= (self.seqn as u16) << 9;
        v
    }

    fn from_info(info: u16) -> Option<Header> {
        Some(Header {
            lt_addr: (info & 0b111) as u8,
            ptype: PacketType::from_code(((info >> 3) & 0xF) as u8)?,
            flow: info & (1 << 7) != 0,
            arqn: info & (1 << 8) != 0,
            seqn: info & (1 << 9) != 0,
        })
    }
}

/// Bytes of a packed FHS payload (144 bits).
pub const FHS_BYTES: usize = 18;

/// The FHS payload: identity and clock of the sender (144 bits + CRC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FhsPayload {
    /// Sender's device address.
    pub addr: BdAddr,
    /// Class of device (24 bits).
    pub class_of_device: u32,
    /// LT_ADDR assigned to the receiving slave (0 in inquiry responses).
    pub lt_addr: u8,
    /// Sender's CLK₂₇₋₂ sampled at packet transmission.
    pub clk27_2: u32,
    /// Page scan mode field (3 bits).
    pub page_scan_mode: u8,
    /// Scan repetition field (2 bits).
    pub sr: u8,
    /// Scan period field (2 bits).
    pub sp: u8,
}

impl FhsPayload {
    /// Packs the 144 information bits.
    pub fn pack(&self) -> BitVec {
        BitVec::from_bytes_lsb(&self.pack_bytes())
    }

    /// The 144 information bits as 18 bytes, LSB first: the fields in
    /// transmission order, each masked to its width.
    pub fn pack_bytes(&self) -> [u8; FHS_BYTES] {
        let fields: [(u64, usize); 11] = [
            (syncword::parity_bits(self.addr.sync_word()), 34),
            (self.addr.lap() as u64, 24),
            (0, 2), // undefined
            (self.sr as u64, 2),
            (self.sp as u64, 2),
            (self.addr.uap() as u64, 8),
            (self.addr.nap() as u64, 16),
            (self.class_of_device as u64, 24),
            (self.lt_addr as u64, 3),
            (self.clk27_2 as u64, 26),
            (self.page_scan_mode as u64, 3),
        ];
        let mut words = [0u128; 2];
        let mut at = 0;
        for (value, width) in fields {
            let v = u128::from(value & ((1 << width) - 1));
            let (word, shift) = (at / 128, at % 128);
            words[word] |= v << shift;
            if shift + width > 128 {
                words[word + 1] |= v >> (128 - shift);
            }
            at += width;
        }
        debug_assert_eq!(at, 144);
        let mut out = [0; FHS_BYTES];
        out[..16].copy_from_slice(&words[0].to_le_bytes());
        out[16..].copy_from_slice(&words[1].to_le_bytes()[..FHS_BYTES - 16]);
        out
    }

    /// Unpacks 144 information bits.
    pub fn unpack(bits: &BitVec) -> Option<FhsPayload> {
        if bits.len() != 144 {
            return None;
        }
        let lap = bits.bits_lsb(34, 24) as u32;
        let sr = bits.bits_lsb(60, 2) as u8;
        let sp = bits.bits_lsb(62, 2) as u8;
        let uap = bits.bits_lsb(64, 8) as u8;
        let nap = bits.bits_lsb(72, 16) as u16;
        let class_of_device = bits.bits_lsb(88, 24) as u32;
        let lt_addr = bits.bits_lsb(112, 3) as u8;
        let clk27_2 = bits.bits_lsb(115, 26) as u32;
        let page_scan_mode = bits.bits_lsb(141, 3) as u8;
        Some(FhsPayload {
            addr: BdAddr::new(nap, uap, lap),
            class_of_device,
            lt_addr,
            clk27_2,
            page_scan_mode,
            sr,
            sp,
        })
    }

    /// The sender's clock value implied by the FHS (low bits zeroed).
    pub fn clock(&self) -> ClkVal {
        ClkVal::from_clk27_2(self.clk27_2)
    }
}

/// Payload content of a packet under construction.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// No payload (ID/NULL/POLL).
    None,
    /// FHS content.
    Fhs(FhsPayload),
    /// ACL data with logical link id.
    Acl {
        /// Logical link (L2CAP start/continuation or LMP).
        llid: Llid,
        /// Payload-level flow control bit.
        flow: bool,
        /// User data (length validated against the packet type).
        data: Vec<u8>,
    },
    /// SCO voice data (fixed length per type).
    Sco(Vec<u8>),
}

/// Everything needed to build or decode packets on a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkKeys {
    /// LAP of the access code on this exchange (CAC/DAC/GIAC).
    pub lap: u32,
    /// UAP seeding HEC/CRC.
    pub uap: u8,
    /// Whitening seed (CLK₆₋₁ in connection, fixed for control exchanges).
    pub whiten: u8,
    /// Sync-word correlator threshold.
    pub sync_threshold: u8,
    /// Whether FHS payloads carry 2/3 FEC (spec: yes; the paper's
    /// behavioural model is reproduced with `false` — see the knob list
    /// of `btsim_core::scenario::paper_config` and the `ext_ablation`
    /// experiment).
    pub fhs_fec: bool,
}

impl LinkKeys {
    /// Keys for a control exchange (inquiry/page) on `lap`.
    pub fn control(lap: u32, uap: u8, sync_threshold: u8, fhs_fec: bool) -> Self {
        LinkKeys {
            lap,
            uap,
            whiten: CONTROL_WHITEN_SEED,
            sync_threshold,
            fhs_fec,
        }
    }
}

/// Builds the air image of an ID packet for `lap`.
pub fn encode_id(lap: u32) -> BitVec {
    syncword::access_code(lap, false)
}

/// A payload as the encoder reads it: borrowed bytes, with an FHS
/// already packed into its 144 information bits.
#[derive(Debug, Clone, Copy)]
enum Body<'a> {
    None,
    Fhs(&'a [u8]),
    Acl {
        llid: Llid,
        flow: bool,
        data: &'a [u8],
    },
    Sco(&'a [u8]),
}

impl<'a> Body<'a> {
    /// `payload` as the encoder reads it, an FHS packed into `packed`.
    fn of(payload: &'a Payload, packed: &'a mut [u8; FHS_BYTES]) -> Self {
        match payload {
            Payload::None => Body::None,
            Payload::Fhs(fhs) => {
                *packed = fhs.pack_bytes();
                let packed: &'a [u8; FHS_BYTES] = packed;
                Body::Fhs(packed)
            }
            Payload::Acl { llid, flow, data } => Body::Acl {
                llid: *llid,
                flow: *flow,
                data,
            },
            Payload::Sco(data) => Body::Sco(data),
        }
    }

    /// Why this body cannot ride a packet of type `ptype`, if it cannot.
    fn check(&self, ptype: PacketType) -> Result<(), &'static str> {
        let voice = matches!(
            ptype,
            PacketType::Hv1 | PacketType::Hv2 | PacketType::Hv3 | PacketType::Dv
        );
        match self {
            _ if ptype == PacketType::Id => Err("ID packets have no header"),
            Body::None if matches!(ptype, PacketType::Null | PacketType::Poll) => Ok(()),
            Body::None => Err("payload required for this packet type"),
            Body::Fhs(bits) if ptype == PacketType::Fhs && bits.len() == FHS_BYTES => Ok(()),
            Body::Acl { data, .. } if ptype.is_acl_data() => {
                if data.len() <= ptype.max_user_bytes() {
                    Ok(())
                } else {
                    Err("payload exceeds the packet type's capacity")
                }
            }
            Body::Sco(data) if voice => {
                if data.len() == ptype.max_user_bytes() {
                    Ok(())
                } else {
                    Err("SCO payloads are fixed-size")
                }
            }
            _ => Err("payload does not match the packet type"),
        }
    }
}

/// Per-link codec state: memoized access-code images (the 72-bit
/// access code is invariant per LAP, but costs a BCH encode to build)
/// plus scratch buffers reused across calls, so building or decoding a
/// packet allocates only the payload bytes a reception returns.
///
/// [`LinkController`](crate::LinkController) owns one and routes every
/// reception through it; the free [`encode`] and [`decode`] functions
/// wrap a fresh `Codec` for one-off callers and are bit-for-bit
/// identical.
#[derive(Debug, Clone, Default)]
pub struct Codec {
    /// Cached access codes keyed by `(lap, with_trailer)`. A device
    /// talks to a handful of LAPs (its own CAC, peers' DACs, the GIAC),
    /// so a linear scan beats hashing.
    codes: Vec<(u32, bool, BitVec)>,
    /// Reused body buffer: the payload header + data + CRC being
    /// encoded, or the FEC-decoded, de-whitened body being received.
    scratch: BitVec,
    /// Reused air image that a disturbed reception is rebuilt into.
    air: BitVec,
    /// Work counts of [`Codec::decode_reception`] since the last
    /// [`Codec::take_tally`].
    tally: RxTally,
}

/// What [`Codec::decode_reception`] did: how many receptions it decoded
/// from a rebuilt air image and how many took the sender's packet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RxTally {
    /// Air images built and decoded bit by bit.
    pub images_built: u64,
    /// Receptions that took the sender's packet without codec work.
    pub shortcuts: u64,
}

impl Codec {
    /// Creates an empty codec.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached access-code image for `lap`.
    fn access_code(&mut self, lap: u32, with_trailer: bool) -> &BitVec {
        let pos = self
            .codes
            .iter()
            .position(|(l, t, _)| *l == lap && *t == with_trailer);
        let pos = match pos {
            Some(p) => p,
            None => {
                self.codes
                    .push((lap, with_trailer, syncword::access_code(lap, with_trailer)));
                self.codes.len() - 1
            }
        };
        &self.codes[pos].2
    }

    /// Builds the full air image of a packet with a header.
    ///
    /// # Panics
    ///
    /// Panics if the payload does not match the packet type (wrong
    /// variant or oversized data) — these are programming errors of the
    /// caller.
    pub fn encode(&mut self, keys: &LinkKeys, header: &Header, payload: &Payload) -> BitVec {
        let mut packed = [0; FHS_BYTES];
        let mut air = BitVec::new();
        self.encode_body(keys, header, Body::of(payload, &mut packed), &mut air);
        air
    }

    /// Builds the air image of `packet` into `out`, replacing what it
    /// held: the same bits [`Codec::encode`] gives for its fields.
    pub fn build(&mut self, packet: &AirPacket, out: &mut BitVec) {
        match packet.body() {
            None => out.clone_from(self.access_code(packet.keys.lap, false)),
            Some(body) => self.encode_body(&packet.keys, &packet.header, body, out),
        }
    }

    fn encode_body(&mut self, keys: &LinkKeys, header: &Header, body: Body<'_>, out: &mut BitVec) {
        if let Err(what) = body.check(header.ptype) {
            panic!("{what}: {:?}", header.ptype);
        }
        let mut whitener = Whitener::from_clk(keys.whiten);

        // Header: 10 info + HEC, whitened, then FEC 1/3 — all three
        // stages word-level: the 18 bits and their tripled 54-bit image
        // stay in registers.
        let info = header.info_bits();
        let header_bits = (info as u64) | ((hec::hec(keys.uap, info) as u64) << 10);
        let header_white = header_bits ^ whitener.next_bits(18);

        // Body staging (scratch buffer, before whitening and FEC).
        self.scratch.clear();
        match body {
            Body::None => {}
            Body::Fhs(bits) => {
                self.scratch.push_bytes_lsb(bits);
                crc::append_crc(keys.uap, &mut self.scratch);
            }
            Body::Acl { llid, flow, data } => {
                match header.ptype.payload_header_bytes() {
                    1 => {
                        let h = (llid.code() as u64)
                            | ((flow as u64) << 2)
                            | ((data.len() as u64 & 0x1F) << 3);
                        self.scratch.push_bits_lsb(h, 8);
                    }
                    2 => {
                        let h = (llid.code() as u64)
                            | ((flow as u64) << 2)
                            | ((data.len() as u64 & 0x1FF) << 3);
                        self.scratch.push_bits_lsb(h, 16);
                    }
                    n => unreachable!("ACL payload header of {n} bytes"),
                }
                self.scratch.push_bytes_lsb(data);
                if header.ptype.has_crc() {
                    crc::append_crc(keys.uap, &mut self.scratch);
                }
            }
            Body::Sco(data) => self.scratch.push_bytes_lsb(data),
        }
        let body_bits = self.scratch.len();

        // Whitening continues the header's stream over the body, XORed
        // in place in 64-bit words.
        whitener.xor_into(&mut self.scratch);

        let fec23 = match header.ptype {
            PacketType::Fhs => keys.fhs_fec,
            t => t.fec23(),
        };
        let coded_bits = if header.ptype == PacketType::Hv1 {
            body_bits * 3
        } else if fec23 {
            body_bits.div_ceil(10) * 15
        } else {
            body_bits
        };
        out.clear();
        out.reserve(72 + HEADER_AIR_BITS + coded_bits);
        out.extend_bits(self.access_code(keys.lap, true));
        out.push_bits_lsb(fec::trip_bits(header_white, 18), HEADER_AIR_BITS as u32);
        if header.ptype == PacketType::Hv1 {
            fec::fec13_encode_into(&self.scratch, out);
        } else if fec23 {
            fec::fec23_encode_into(&self.scratch, out);
        } else {
            out.extend_bits(&self.scratch);
        }
    }
}

/// Builds the full air image of a packet with a header.
///
/// One-off form of [`Codec::encode`] (no access-code cache or scratch
/// reuse); hot paths should hold a [`Codec`] instead.
///
/// # Panics
///
/// Panics if the payload does not match the packet type (wrong variant or
/// oversized data) — these are programming errors of the caller.
pub fn encode(keys: &LinkKeys, header: &Header, payload: &Payload) -> BitVec {
    Codec::new().encode(keys, header, payload)
}

/// A packet as a transmission carries it: the sender's keys, header and
/// payload (or only the LAP of an ID packet), with its air image left
/// unbuilt.
///
/// Building one checks the payload against the packet type, as encoding
/// always has, so a bad packet fails where it is made and not at the
/// first reception that needs its bits. The header's LT_ADDR is kept to
/// its three air bits. An FHS payload is kept packed, so a reception
/// decodes exactly the fields the bits carry.
///
/// # Examples
///
/// ```
/// use btsim_baseband::packet::{self, AirPacket, Codec, Header, LinkKeys, Llid, PacketType, Payload};
/// use btsim_coding::{AirImage, BitVec};
///
/// let keys = LinkKeys::control(0x2C7F91, 0x47, 54, true);
/// let header = Header { lt_addr: 1, ptype: PacketType::Dm1, flow: true, arqn: false, seqn: true };
/// let payload = Payload::Acl { llid: Llid::Start, flow: true, data: vec![7; 9] };
/// let air = AirPacket::new(keys, header, &payload);
/// let mut bits = BitVec::new();
/// Codec::new().build(&air, &mut bits);
/// assert_eq!(bits, packet::encode(&keys, &header, &payload));
/// assert_eq!(air.air_bits(), bits.len());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AirPacket {
    /// The sender's keys; only `lap` is meaningful for an ID packet.
    keys: LinkKeys,
    /// The header; `ptype` is [`PacketType::Id`] for an ID packet.
    header: Header,
    /// The ACL payload header's LLID and flow bit.
    acl: Option<(Llid, bool)>,
    /// ACL or SCO user bytes, or the packed FHS; `None` without payload.
    bytes: Option<Box<[u8]>>,
}

// Kept to 32 bytes (the user bytes boxed, an FHS packed into them), so
// a calendar entry that carries one stays small.
const _: () = assert!(std::mem::size_of::<AirPacket>() <= 32);

impl AirPacket {
    /// An ID packet (access code only) for `lap`.
    pub fn id(lap: u32) -> Self {
        AirPacket {
            keys: LinkKeys {
                lap,
                uap: 0,
                whiten: 0,
                sync_threshold: 0,
                fhs_fec: false,
            },
            header: Header {
                lt_addr: 0,
                ptype: PacketType::Id,
                flow: false,
                arqn: false,
                seqn: false,
            },
            acl: None,
            bytes: None,
        }
    }

    /// A packet with a header, or why its payload cannot ride it.
    ///
    /// # Errors
    ///
    /// A static description when the payload does not match the packet
    /// type (wrong variant, oversized ACL data, SCO data of the wrong
    /// size), and for [`PacketType::Id`] (see [`AirPacket::id`]) and
    /// [`PacketType::Dv`], whose combined payload the model does not
    /// build.
    pub fn try_new(
        keys: LinkKeys,
        header: Header,
        payload: &Payload,
    ) -> Result<Self, &'static str> {
        if header.ptype == PacketType::Dv {
            return Err("DV packets are not built: the model has no DV payload format");
        }
        let mut packed = [0; FHS_BYTES];
        let body = Body::of(payload, &mut packed);
        body.check(header.ptype)?;
        let (acl, bytes) = match body {
            Body::None => (None, None),
            Body::Acl { llid, flow, data } => (Some((llid, flow)), Some(data)),
            Body::Fhs(data) | Body::Sco(data) => (None, Some(data)),
        };
        Ok(AirPacket {
            keys,
            header: Header {
                lt_addr: header.lt_addr & 0b111,
                ..header
            },
            acl,
            bytes: bytes.map(Box::from),
        })
    }

    /// A packet with a header.
    ///
    /// # Panics
    ///
    /// Panics where [`AirPacket::try_new`] returns an error — a
    /// programming error of the caller, as for [`Codec::encode`].
    pub fn new(keys: LinkKeys, header: Header, payload: &Payload) -> Self {
        Self::try_new(keys, header, payload).unwrap_or_else(|what| panic!("{what}: {header:?}"))
    }

    /// The payload, rebuilt as [`Payload`] (`Payload::None` for an ID
    /// packet).
    pub fn payload(&self) -> Payload {
        match self.body() {
            None | Some(Body::None) => Payload::None,
            Some(Body::Fhs(bits)) => Payload::Fhs(
                FhsPayload::unpack(&BitVec::from_bytes_lsb(bits)).expect("144 packed bits"),
            ),
            Some(Body::Acl { llid, flow, data }) => Payload::Acl {
                llid,
                flow,
                data: data.to_vec(),
            },
            Some(Body::Sco(data)) => Payload::Sco(data.to_vec()),
        }
    }

    /// The decode result of a clean reception under the sender's keys.
    fn decoded(&self) -> Decoded {
        match self.header.ptype {
            PacketType::Id => Decoded::Id,
            _ => Decoded::Packet {
                header: self.header,
                payload: self.payload(),
            },
        }
    }

    /// Whether a reception with no flips and no collision mask, heard
    /// under `keys`, decodes to exactly this packet: the keys are the
    /// sender's (for an ID packet, the LAP is) and a perfect sync word
    /// reaches the correlator threshold.
    fn heard_as(&self, keys: &LinkKeys) -> bool {
        let same = match self.header.ptype {
            PacketType::Id => keys.lap == self.keys.lap,
            _ => *keys == self.keys,
        };
        same && keys.sync_threshold <= 64
    }

    /// The payload as the encoder reads it; `None` for an ID packet.
    /// The type decides the variant, as [`Body::check`] made sure at
    /// construction.
    fn body(&self) -> Option<Body<'_>> {
        let bytes = self.bytes.as_deref().unwrap_or_default();
        Some(match self.header.ptype {
            PacketType::Id => return None,
            PacketType::Null | PacketType::Poll => Body::None,
            PacketType::Fhs => Body::Fhs(bytes),
            t if t.is_acl_data() => {
                let (llid, flow) = self.acl.expect("ACL packets keep their payload header");
                Body::Acl {
                    llid,
                    flow,
                    data: bytes,
                }
            }
            _ => Body::Sco(bytes),
        })
    }
}

/// An ID packet is written as its LAP alone; any other packet as its
/// keys, header and payload, which decoding checks against each other
/// exactly as [`AirPacket::try_new`] does.
impl Snap for AirPacket {
    fn snap(&self, w: &mut SnapWriter) {
        let AirPacket {
            keys,
            header,
            acl: _,
            bytes: _,
        } = self;
        match header.ptype {
            PacketType::Id => {
                w.put_u8(0);
                keys.lap.snap(w);
            }
            _ => {
                w.put_u8(1);
                keys.snap(w);
                header.snap(w);
                self.payload().snap(w);
            }
        }
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        match r.take_u8()? {
            0 => Ok(AirPacket::id(r.take_u32()?)),
            1 => {
                let keys = LinkKeys::unsnap(r)?;
                let header = Header::unsnap(r)?;
                let payload = Payload::unsnap(r)?;
                AirPacket::try_new(keys, header, &payload).map_err(|what| r.malformed(what))
            }
            _ => Err(r.malformed("unknown air packet tag")),
        }
    }
}

impl AirImage for AirPacket {
    fn air_bits(&self) -> usize {
        let user_bytes = self.bytes.as_ref().map_or(0, |b| b.len());
        air_bits(self.header.ptype, user_bytes, self.keys.fhs_fec)
    }

    /// Builds through a codec kept per thread, so the access codes of
    /// images built outside a link controller (capture records) stay
    /// cached.
    fn write_bits(&self, out: &mut BitVec) {
        thread_local! {
            static CODEC: std::cell::RefCell<Codec> = std::cell::RefCell::new(Codec::new());
        }
        CODEC.with_borrow_mut(|codec| codec.build(self, out));
    }
}

/// Why a reception failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Sync word did not correlate above the threshold.
    NoSync,
    /// Bit image too short / inconsistent for the decoded type.
    BadLength,
    /// A collision (`X` bits) hit the header.
    HeaderCollision,
    /// Header HEC check failed.
    HeaderHec,
    /// Undefined packet type code.
    UnknownType,
    /// A collision (`X` bits) hit the payload.
    PayloadCollision,
    /// Payload CRC failed (or uncorrectable FEC damage).
    PayloadCrc,
    /// Payload structure invalid (bad LLID / length field).
    PayloadFormat,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DecodeError::NoSync => "sync word not detected",
            DecodeError::BadLength => "inconsistent packet length",
            DecodeError::HeaderCollision => "collision over header",
            DecodeError::HeaderHec => "header error check failed",
            DecodeError::UnknownType => "undefined packet type",
            DecodeError::PayloadCollision => "collision over payload",
            DecodeError::PayloadCrc => "payload integrity check failed",
            DecodeError::PayloadFormat => "invalid payload structure",
        };
        f.write_str(s)
    }
}

impl std::error::Error for DecodeError {}

/// A successfully decoded packet.
#[derive(Debug, Clone, PartialEq)]
pub enum Decoded {
    /// An ID packet (access code only).
    Id,
    /// A packet with a header (payload already validated).
    Packet {
        /// The decoded header.
        header: Header,
        /// The decoded payload.
        payload: Payload,
    },
}

/// Whether `mask` marks any bit of `range` as collided, 64 bits a step
/// (bits past the mask's end count as clean).
fn region_collided(mask: Option<&BitVec>, range: Range<usize>) -> bool {
    let Some(mask) = mask else { return false };
    range
        .clone()
        .step_by(64)
        .any(|i| mask.bits_lsb(i, (range.end - i).min(64) as u32) != 0)
}

/// The `n` bytes packed LSB-first at bit `start` of `bits`.
fn read_bytes(bits: &BitVec, start: usize, n: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(n);
    for k in (0..n).step_by(8) {
        let m = (n - k).min(8);
        let word = bits.bits_lsb(start + 8 * k, 8 * m as u32);
        out.extend_from_slice(&word.to_le_bytes()[..m]);
    }
    out
}

impl Codec {
    /// Decodes a received bit image against the link keys.
    ///
    /// `mask` marks bits hit by a collision (from the channel resolver).
    /// The FEC, whitening and CRC stages run in the codec's scratch
    /// buffer, read from the image by bit offset, so a reused codec
    /// allocates only the payload bytes it returns.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] naming the first stage that failed; the
    /// caller maps these to retransmissions or silence.
    pub fn decode(
        &mut self,
        bits: &BitVec,
        mask: Option<&BitVec>,
        keys: &LinkKeys,
    ) -> Result<Decoded, DecodeError> {
        if bits.len() < syncword::ID_PACKET_BITS {
            return Err(DecodeError::BadLength);
        }
        let corr = syncword::correlate(bits, 4, mask, keys.lap, keys.sync_threshold);
        if !corr.detected {
            return Err(DecodeError::NoSync);
        }
        if bits.len() <= syncword::ID_PACKET_BITS + ID_SLACK_BITS {
            return Ok(Decoded::Id);
        }
        let pay_start = 72 + HEADER_AIR_BITS;
        if bits.len() < pay_start {
            return Err(DecodeError::BadLength);
        }
        if region_collided(mask, 72..pay_start) {
            return Err(DecodeError::HeaderCollision);
        }
        let mut whitener = Whitener::from_clk(keys.whiten);
        let body = &mut self.scratch;
        body.clear();
        fec::fec13_decode(bits, 72..pay_start, body);
        let header_bits = body.bits_lsb(0, 18) ^ whitener.next_bits(18);
        let info = (header_bits & 0x3FF) as u16;
        let rx_hec = (header_bits >> 10) as u8;
        if !hec::check(keys.uap, info, rx_hec) {
            return Err(DecodeError::HeaderHec);
        }
        let header = Header::from_info(info).ok_or(DecodeError::UnknownType)?;

        if matches!(header.ptype, PacketType::Null | PacketType::Poll) {
            return Ok(Decoded::Packet {
                header,
                payload: Payload::None,
            });
        }
        let raw = pay_start..bits.len();
        if region_collided(mask, raw.clone()) {
            return Err(DecodeError::PayloadCollision);
        }

        // Undo FEC into the scratch, then de-whiten it in place.
        body.clear();
        match header.ptype {
            PacketType::Hv1 => {
                if !raw.len().is_multiple_of(3) {
                    return Err(DecodeError::BadLength);
                }
                fec::fec13_decode(bits, raw, body);
            }
            PacketType::Fhs if !keys.fhs_fec => body.extend_range(bits, raw),
            t if t.fec23() || t == PacketType::Fhs => {
                if !raw.len().is_multiple_of(15) {
                    return Err(DecodeError::BadLength);
                }
                fec::fec23_decode(bits, raw, body);
            }
            _ => body.extend_range(bits, raw),
        }
        whitener.xor_into(body);

        match header.ptype {
            PacketType::Fhs => {
                if body.len() < 160 {
                    return Err(DecodeError::BadLength);
                }
                if !crc::check_framed(keys.uap, body, 160) {
                    return Err(DecodeError::PayloadCrc);
                }
                body.truncate(144);
                let fhs = FhsPayload::unpack(body).ok_or(DecodeError::PayloadFormat)?;
                Ok(Decoded::Packet {
                    header,
                    payload: Payload::Fhs(fhs),
                })
            }
            t if t.is_acl_data() => {
                let ph_bytes = t.payload_header_bytes();
                if body.len() < ph_bytes * 8 {
                    return Err(DecodeError::BadLength);
                }
                let (llid_code, flow, length) = if ph_bytes == 1 {
                    let h = body.bits_lsb(0, 8);
                    ((h & 0b11) as u8, h & 0b100 != 0, ((h >> 3) & 0x1F) as usize)
                } else {
                    let h = body.bits_lsb(0, 16);
                    (
                        (h & 0b11) as u8,
                        h & 0b100 != 0,
                        ((h >> 3) & 0x1FF) as usize,
                    )
                };
                let llid = Llid::from_code(llid_code).ok_or(DecodeError::PayloadFormat)?;
                if length > t.max_user_bytes() {
                    return Err(DecodeError::PayloadFormat);
                }
                let framed_bits = (ph_bytes + length) * 8 + if t.has_crc() { 16 } else { 0 };
                if body.len() < framed_bits {
                    return Err(DecodeError::BadLength);
                }
                if t.has_crc() && !crc::check_framed(keys.uap, body, framed_bits) {
                    return Err(DecodeError::PayloadCrc);
                }
                let data = read_bytes(body, ph_bytes * 8, length);
                Ok(Decoded::Packet {
                    header,
                    payload: Payload::Acl { llid, flow, data },
                })
            }
            PacketType::Hv1 | PacketType::Hv2 | PacketType::Hv3 => {
                let want = header.ptype.max_user_bytes();
                if body.len() < want * 8 {
                    return Err(DecodeError::BadLength);
                }
                Ok(Decoded::Packet {
                    header,
                    payload: Payload::Sco(read_bytes(body, 0, want)),
                })
            }
            // DV combines an unprotected voice field with a FEC-protected
            // data field in one payload; no experiment or LMP procedure of
            // the paper uses it, so it is recognised but not reassembled.
            PacketType::Dv => Err(DecodeError::PayloadFormat),
            _ => Err(DecodeError::UnknownType),
        }
    }
}

impl Codec {
    /// Decodes a reception of `packet` under the receiver's `keys`, with
    /// `flips` the bit positions noise inverted and `mask` the collision
    /// mask.
    ///
    /// A reception with no flips and no mask, heard under the sender's
    /// own keys, takes the sender's packet as its result without any
    /// codec work. Any other reception — noisy, collided, or heard under
    /// other keys — builds the air image through the encoder, inverts the
    /// flipped bits and runs [`Codec::decode`], so both paths return what
    /// decoding the bits returns. Debug builds run the full decode beside
    /// every shortcut and assert that the two agree.
    ///
    /// # Errors
    ///
    /// As [`Codec::decode`].
    pub fn decode_reception(
        &mut self,
        packet: &AirPacket,
        flips: &[u32],
        mask: Option<&BitVec>,
        keys: &LinkKeys,
    ) -> Result<Decoded, DecodeError> {
        if flips.is_empty() && mask.is_none() && packet.heard_as(keys) {
            self.tally.shortcuts += 1;
            let decoded = packet.decoded();
            debug_assert_eq!(
                self.decode_built(packet, flips, mask, keys).as_ref(),
                Ok(&decoded),
                "the shortcut disagrees with decoding the bits"
            );
            return Ok(decoded);
        }
        self.tally.images_built += 1;
        self.decode_built(packet, flips, mask, keys)
    }

    /// Builds `packet`'s air image, inverts `flips` and decodes it.
    fn decode_built(
        &mut self,
        packet: &AirPacket,
        flips: &[u32],
        mask: Option<&BitVec>,
        keys: &LinkKeys,
    ) -> Result<Decoded, DecodeError> {
        let mut air = std::mem::take(&mut self.air);
        self.build(packet, &mut air);
        for &f in flips {
            air.toggle(f as usize);
        }
        let decoded = self.decode(&air, mask, keys);
        self.air = air;
        decoded
    }

    /// The work counts of [`Codec::decode_reception`] since the last
    /// call, resetting them.
    pub fn take_tally(&mut self) -> RxTally {
        std::mem::take(&mut self.tally)
    }
}

/// Decodes a received bit image against the link keys.
///
/// One-off form of [`Codec::decode`] (no scratch reuse); hot paths
/// should hold a [`Codec`] instead.
///
/// # Errors
///
/// Returns a [`DecodeError`] naming the first stage that failed; the
/// caller maps these to retransmissions or silence.
pub fn decode(
    bits: &BitVec,
    mask: Option<&BitVec>,
    keys: &LinkKeys,
) -> Result<Decoded, DecodeError> {
    Codec::new().decode(bits, mask, keys)
}

/// Air length in bits of an encoded packet with the given type and user
/// payload length (for scheduling windows before building the image).
pub fn air_bits(ptype: PacketType, user_bytes: usize, fhs_fec: bool) -> usize {
    let base = 72 + HEADER_AIR_BITS;
    let body_bits = |framed_bits: usize, fec23: bool| {
        if fec23 {
            framed_bits.div_ceil(10) * 15
        } else {
            framed_bits
        }
    };
    match ptype {
        PacketType::Id => syncword::ID_PACKET_BITS,
        PacketType::Null | PacketType::Poll => base,
        PacketType::Fhs => base + body_bits(160, fhs_fec),
        PacketType::Hv1 => base + 240,
        PacketType::Hv2 => base + 240,
        PacketType::Hv3 => base + 240,
        PacketType::Dv => base + 80 + body_bits(96, true),
        t => {
            let framed =
                (t.payload_header_bytes() + user_bytes) * 8 + if t.has_crc() { 16 } else { 0 };
            base + body_bits(framed, t.fec23())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> LinkKeys {
        LinkKeys {
            lap: 0x2C7F91,
            uap: 0x47,
            whiten: 0x15,
            sync_threshold: syncword::DEFAULT_SYNC_THRESHOLD,
            fhs_fec: true,
        }
    }

    fn header(ptype: PacketType) -> Header {
        Header {
            lt_addr: 2,
            ptype,
            flow: true,
            arqn: false,
            seqn: true,
        }
    }

    #[test]
    fn type_codes_roundtrip() {
        for t in [
            PacketType::Null,
            PacketType::Poll,
            PacketType::Fhs,
            PacketType::Dm1,
            PacketType::Dh1,
            PacketType::Dm3,
            PacketType::Dh3,
            PacketType::Dm5,
            PacketType::Dh5,
            PacketType::Aux1,
            PacketType::Hv1,
            PacketType::Hv2,
            PacketType::Hv3,
            PacketType::Dv,
        ] {
            assert_eq!(PacketType::from_code(t.code()), Some(t));
        }
        assert_eq!(PacketType::from_code(0b1100), None);
        assert_eq!(PacketType::from_code(0b1101), None);
    }

    #[test]
    fn id_packet_roundtrip() {
        let air = encode_id(keys().lap);
        assert_eq!(air.len(), 68);
        assert_eq!(decode(&air, None, &keys()), Ok(Decoded::Id));
    }

    #[test]
    fn null_and_poll_roundtrip() {
        for t in [PacketType::Null, PacketType::Poll] {
            let air = encode(&keys(), &header(t), &Payload::None);
            assert_eq!(air.len(), 126);
            match decode(&air, None, &keys()).unwrap() {
                Decoded::Packet { header: h, payload } => {
                    assert_eq!(h.ptype, t);
                    assert_eq!(h.lt_addr, 2);
                    assert!(h.flow);
                    assert!(!h.arqn);
                    assert!(h.seqn);
                    assert_eq!(payload, Payload::None);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    fn fhs_payload() -> FhsPayload {
        FhsPayload {
            addr: BdAddr::new(0xBEEF, 0x9A, 0x5C1D2E),
            class_of_device: 0x20041C,
            lt_addr: 5,
            clk27_2: 0x155_AA55,
            page_scan_mode: 1,
            sr: 2,
            sp: 1,
        }
    }

    #[test]
    fn fhs_packing_follows_the_field_layout() {
        // The spec's field order pushed bit by bit, against the packed
        // words, for field values wider than their fields too.
        let reference = |f: &FhsPayload| {
            let mut b = BitVec::new();
            b.push_bits_lsb(syncword::parity_bits(f.addr.sync_word()), 34);
            b.push_bits_lsb(f.addr.lap() as u64, 24);
            b.push_bits_lsb(0, 2);
            b.push_bits_lsb(f.sr as u64 & 0b11, 2);
            b.push_bits_lsb(f.sp as u64 & 0b11, 2);
            b.push_bits_lsb(f.addr.uap() as u64, 8);
            b.push_bits_lsb(f.addr.nap() as u64, 16);
            b.push_bits_lsb(f.class_of_device as u64 & 0xFF_FFFF, 24);
            b.push_bits_lsb(f.lt_addr as u64 & 0b111, 3);
            b.push_bits_lsb(f.clk27_2 as u64 & 0x03FF_FFFF, 26);
            b.push_bits_lsb(f.page_scan_mode as u64 & 0b111, 3);
            b
        };
        let wide = FhsPayload {
            addr: BdAddr::new(0xFFFF, 0xFF, 0xFF_FFFF),
            class_of_device: u32::MAX,
            lt_addr: u8::MAX,
            clk27_2: u32::MAX,
            page_scan_mode: u8::MAX,
            sr: u8::MAX,
            sp: u8::MAX,
        };
        for f in [fhs_payload(), wide] {
            assert_eq!(f.pack(), reference(&f));
            assert_eq!(f.pack().len(), 144);
        }
    }

    #[test]
    fn fhs_roundtrip_with_fec() {
        let air = encode(
            &keys(),
            &header(PacketType::Fhs),
            &Payload::Fhs(fhs_payload()),
        );
        assert_eq!(air.len(), 126 + 240);
        match decode(&air, None, &keys()).unwrap() {
            Decoded::Packet {
                payload: Payload::Fhs(f),
                ..
            } => assert_eq!(f, fhs_payload()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fhs_roundtrip_without_fec() {
        let mut k = keys();
        k.fhs_fec = false;
        let air = encode(&k, &header(PacketType::Fhs), &Payload::Fhs(fhs_payload()));
        assert_eq!(air.len(), 126 + 160);
        match decode(&air, None, &k).unwrap() {
            Decoded::Packet {
                payload: Payload::Fhs(f),
                ..
            } => assert_eq!(f, fhs_payload()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fhs_clock_field_roundtrip() {
        let f = fhs_payload();
        assert_eq!(f.clock().clk27_2(), f.clk27_2 & 0x03FF_FFFF);
    }

    #[test]
    fn acl_roundtrip_all_data_types() {
        for t in [
            PacketType::Dm1,
            PacketType::Dh1,
            PacketType::Dm3,
            PacketType::Dh3,
            PacketType::Dm5,
            PacketType::Dh5,
            PacketType::Aux1,
        ] {
            let data: Vec<u8> = (0..t.max_user_bytes() as u32).map(|i| i as u8).collect();
            let payload = Payload::Acl {
                llid: Llid::Start,
                flow: false,
                data: data.clone(),
            };
            let air = encode(&keys(), &header(t), &payload);
            match decode(&air, None, &keys()).unwrap() {
                Decoded::Packet {
                    payload:
                        Payload::Acl {
                            llid, data: got, ..
                        },
                    header: h,
                } => {
                    assert_eq!(h.ptype, t, "{t:?}");
                    assert_eq!(llid, Llid::Start);
                    assert_eq!(got, data, "{t:?}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn acl_roundtrip_empty_and_partial_payloads() {
        for len in [0usize, 1, 5, 17] {
            let data: Vec<u8> = vec![0xC3; len];
            let payload = Payload::Acl {
                llid: Llid::Lmp,
                flow: true,
                data: data.clone(),
            };
            let air = encode(&keys(), &header(PacketType::Dm1), &payload);
            match decode(&air, None, &keys()).unwrap() {
                Decoded::Packet {
                    payload:
                        Payload::Acl {
                            data: got, llid, ..
                        },
                    ..
                } => {
                    assert_eq!(got, data, "len {len}");
                    assert_eq!(llid, Llid::Lmp);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn sco_roundtrip() {
        for t in [PacketType::Hv1, PacketType::Hv2, PacketType::Hv3] {
            let data: Vec<u8> = (0..t.max_user_bytes() as u32)
                .map(|i| (i * 7) as u8)
                .collect();
            let air = encode(&keys(), &header(t), &Payload::Sco(data.clone()));
            match decode(&air, None, &keys()).unwrap() {
                Decoded::Packet {
                    payload: Payload::Sco(got),
                    ..
                } => assert_eq!(got, data, "{t:?}"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn codec_reuse_matches_one_off_encode() {
        // A reused Codec (cached access code, dirty scratch from prior
        // packets of other types/sizes) must emit byte-identical images.
        let mut codec = Codec::new();
        let mut jobs: Vec<(LinkKeys, Header, Payload)> = Vec::new();
        let mut k2 = keys();
        k2.lap = 0x11_22_33;
        k2.whiten = 0x01;
        for (i, t) in [
            PacketType::Dm1,
            PacketType::Dh5,
            PacketType::Null,
            PacketType::Hv1,
            PacketType::Dm5,
            PacketType::Fhs,
            PacketType::Poll,
            PacketType::Hv3,
            PacketType::Dm1,
        ]
        .into_iter()
        .enumerate()
        {
            let keys = if i % 2 == 0 { keys() } else { k2 };
            let payload = match t {
                PacketType::Null | PacketType::Poll => Payload::None,
                PacketType::Fhs => Payload::Fhs(fhs_payload()),
                PacketType::Hv1 | PacketType::Hv3 => {
                    Payload::Sco(vec![i as u8; t.max_user_bytes()])
                }
                _ => Payload::Acl {
                    llid: Llid::Start,
                    flow: false,
                    data: vec![0xA0 | i as u8; t.max_user_bytes() - i],
                },
            };
            jobs.push((keys, header(t), payload));
        }
        for (keys, header, payload) in &jobs {
            assert_eq!(
                codec.encode(keys, header, payload),
                encode(keys, header, payload),
                "{:?}",
                header.ptype
            );
        }
        let mut id = BitVec::new();
        codec.build(&AirPacket::id(keys().lap), &mut id);
        assert_eq!(id, encode_id(keys().lap));
    }

    #[test]
    fn codec_reuse_matches_one_off_decode() {
        // One Codec decodes a shuffled mix of every packet type, clean
        // and damaged, so many decodes start from a scratch buffer that
        // a longer packet or a failed stage left dirty. Every result
        // must equal a fresh one-off decode.
        let mut k2 = keys();
        k2.fhs_fec = false;
        let mut images: Vec<(BitVec, LinkKeys)> = vec![(encode_id(keys().lap), keys())];
        for t in [
            PacketType::Null,
            PacketType::Poll,
            PacketType::Fhs,
            PacketType::Dm1,
            PacketType::Dh1,
            PacketType::Dm3,
            PacketType::Dh3,
            PacketType::Dm5,
            PacketType::Dh5,
            PacketType::Aux1,
            PacketType::Hv1,
            PacketType::Hv2,
            PacketType::Hv3,
            PacketType::Dv,
        ] {
            let payload = match t {
                PacketType::Null | PacketType::Poll => Payload::None,
                PacketType::Fhs => Payload::Fhs(fhs_payload()),
                PacketType::Hv1 | PacketType::Hv2 | PacketType::Hv3 | PacketType::Dv => {
                    Payload::Sco((0..t.max_user_bytes()).map(|i| i as u8 ^ 0x5A).collect())
                }
                _ => Payload::Acl {
                    llid: Llid::Continuation,
                    flow: true,
                    data: (0..t.max_user_bytes()).map(|i| (i * 7) as u8).collect(),
                },
            };
            images.push((encode(&keys(), &header(t), &payload), keys()));
            if t == PacketType::Fhs {
                images.push((encode(&k2, &header(t), &payload), k2));
            }
        }
        let mut cases: Vec<(BitVec, Option<BitVec>, LinkKeys)> = Vec::new();
        for (air, k) in &images {
            let len = air.len();
            cases.push((air.clone(), None, *k));
            // Collisions over a few sync bits (still detected), the
            // header, and the last payload bit.
            for at in [10, 80, len - 1] {
                if at >= len {
                    continue;
                }
                let mut mask = BitVec::zeros(len);
                mask.fill_range(at, (at + 3).min(len));
                cases.push((air.clone(), Some(mask), *k));
            }
            let mut wrong_lap = *k;
            wrong_lap.lap ^= 0x00_F00F;
            cases.push((air.clone(), None, wrong_lap));
            let mut wrong_uap = *k;
            wrong_uap.uap ^= 0x01;
            cases.push((air.clone(), None, wrong_uap));
            // Payload damage: one flip (FEC may correct it), then a
            // burst no code corrects.
            if len > 140 {
                let mut one = air.clone();
                one.toggle(130);
                cases.push((one, None, *k));
                let mut burst = air.clone();
                for i in 130..150 {
                    burst.toggle(i);
                }
                cases.push((burst, None, *k));
            }
            // Bad lengths: cut mid-header and mid-payload, and one
            // extra bit.
            for cut in [100, len.saturating_sub(5)] {
                if cut > 0 && cut < len {
                    cases.push((air.slice(0, cut), None, *k));
                }
            }
            let mut longer = air.clone();
            longer.push(true);
            cases.push((longer, None, *k));
        }
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..cases.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            cases.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut codec = Codec::new();
        let mut outcomes = std::collections::HashSet::new();
        for (i, (air, mask, k)) in cases.iter().enumerate() {
            let want = decode(air, mask.as_ref(), k);
            assert_eq!(
                codec.decode(air, mask.as_ref(), k),
                want,
                "case {i}: {} bits",
                air.len()
            );
            outcomes.insert(match want {
                Ok(Decoded::Id) => "id".to_string(),
                Ok(Decoded::Packet { header, .. }) => format!("{:?}", header.ptype),
                Err(e) => format!("{e:?}"),
            });
        }
        for seen in [
            "id",
            "Fhs",
            "Dm1",
            "Dh5",
            "Hv1",
            "NoSync",
            "BadLength",
            "HeaderCollision",
            "HeaderHec",
            "PayloadCollision",
            "PayloadCrc",
            "PayloadFormat",
        ] {
            assert!(outcomes.contains(seen), "no case decoded to {seen}");
        }
    }

    /// Every packet type, with the payloads an `AirPacket` of it can
    /// carry: ACL data of several lengths up to capacity.
    fn every_type_payloads() -> Vec<(PacketType, Payload)> {
        let mut out = Vec::new();
        for t in [
            PacketType::Null,
            PacketType::Poll,
            PacketType::Fhs,
            PacketType::Dm1,
            PacketType::Dh1,
            PacketType::Dm3,
            PacketType::Dh3,
            PacketType::Dm5,
            PacketType::Dh5,
            PacketType::Aux1,
            PacketType::Hv1,
            PacketType::Hv2,
            PacketType::Hv3,
        ] {
            let max = t.max_user_bytes();
            match t {
                PacketType::Null | PacketType::Poll => out.push((t, Payload::None)),
                PacketType::Fhs => out.push((t, Payload::Fhs(fhs_payload()))),
                PacketType::Hv1 | PacketType::Hv2 | PacketType::Hv3 => {
                    out.push((t, Payload::Sco((0..max as u8).collect())))
                }
                _ => {
                    for len in [0, 1, max / 2, max.saturating_sub(1), max] {
                        out.push((
                            t,
                            Payload::Acl {
                                llid: Llid::Continuation,
                                flow: len.is_multiple_of(2),
                                data: (0..len).map(|i| (i * 13) as u8).collect(),
                            },
                        ));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn air_bits_equals_the_built_length_for_every_type() {
        // A transmission's air time now comes from `air_bits`, not from
        // the length of an encoded image, so the two must agree for
        // every packet a transmission can carry.
        let mut codec = Codec::new();
        let mut built = BitVec::new();
        let id = AirPacket::id(keys().lap);
        codec.build(&id, &mut built);
        assert_eq!(built, encode_id(keys().lap));
        assert_eq!(id.air_bits(), built.len());
        assert_eq!(air_bits(PacketType::Id, 0, true), built.len());
        for fhs_fec in [true, false] {
            let k = LinkKeys { fhs_fec, ..keys() };
            for (t, payload) in every_type_payloads() {
                let packet = AirPacket::new(k, header(t), &payload);
                codec.build(&packet, &mut built);
                assert_eq!(built, encode(&k, &header(t), &payload), "{t:?}");
                let user = match &payload {
                    Payload::Acl { data, .. } | Payload::Sco(data) => data.len(),
                    _ => 0,
                };
                assert_eq!(built.len(), air_bits(t, user, fhs_fec), "{t:?}/{user}");
                assert_eq!(packet.air_bits(), built.len(), "{t:?}/{user}");
                assert_eq!(packet.payload(), payload, "{t:?}");
            }
        }
        // DV has no payload format in the model: it is never built, so
        // `air_bits` (which sizes a real DV packet) has no image to match.
        let dv = AirPacket::try_new(keys(), header(PacketType::Dv), &Payload::Sco(vec![0; 9]));
        assert!(dv.is_err());
    }

    #[test]
    fn air_packets_check_the_payload_where_they_are_built() {
        let acl = |n: usize| Payload::Acl {
            llid: Llid::Start,
            flow: false,
            data: vec![0; n],
        };
        let refused = [
            (PacketType::Id, Payload::None),
            (PacketType::Dv, Payload::Sco(vec![0; 9])),
            (PacketType::Null, acl(1)),
            (PacketType::Poll, Payload::Sco(Vec::new())),
            (PacketType::Fhs, Payload::None),
            (PacketType::Fhs, Payload::Sco(vec![0; FHS_BYTES])),
            (PacketType::Dm1, acl(18)),
            (PacketType::Dm1, Payload::Fhs(fhs_payload())),
            (PacketType::Hv1, acl(10)),
            (PacketType::Hv2, Payload::Sco(vec![0; 19])),
        ];
        for (t, payload) in refused {
            assert!(
                AirPacket::try_new(keys(), header(t), &payload).is_err(),
                "{t:?} with {payload:?}"
            );
        }
        // The header keeps only its three LT_ADDR air bits, as decoding
        // returns them.
        let mut h = header(PacketType::Poll);
        h.lt_addr = 0xFD;
        let packet = AirPacket::new(keys(), h, &Payload::None);
        assert_eq!(packet.header.lt_addr, 0b101);
        let mut built = BitVec::new();
        Codec::new().build(&packet, &mut built);
        assert_eq!(
            decode(&built, None, &keys()),
            Ok(Decoded::Packet {
                header: packet.header,
                payload: Payload::None
            })
        );
    }

    #[test]
    fn air_packets_roundtrip_and_bad_ones_are_refused() {
        let roundtrip = |p: &AirPacket| {
            let mut w = SnapWriter::new();
            p.snap(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            let back = AirPacket::unsnap(&mut r);
            r.finish().map(|()| back)
        };
        let mut packets = vec![AirPacket::id(keys().lap)];
        for (t, payload) in every_type_payloads() {
            packets.push(AirPacket::new(keys(), header(t), &payload));
        }
        for p in &packets {
            assert_eq!(roundtrip(p).unwrap().unwrap(), *p);
        }
        // A payload that does not fit its type decodes to a typed error.
        let mut w = SnapWriter::new();
        w.put_u8(1);
        keys().snap(&mut w);
        header(PacketType::Dm1).snap(&mut w);
        Payload::Sco(vec![0; 10]).snap(&mut w);
        let bytes = w.into_bytes();
        assert!(matches!(
            AirPacket::unsnap(&mut SnapReader::new(&bytes)),
            Err(SnapshotError::Malformed { .. })
        ));
        assert!(AirPacket::unsnap(&mut SnapReader::new(&[2])).is_err());
    }

    #[test]
    fn receptions_shortcut_only_when_undisturbed_under_the_senders_keys() {
        let mut codec = Codec::new();
        let packet = AirPacket::new(
            keys(),
            header(PacketType::Dm1),
            &Payload::Acl {
                llid: Llid::Start,
                flow: true,
                data: vec![9; 17],
            },
        );
        let mut built = BitVec::new();
        codec.build(&packet, &mut built);
        let len = built.len();
        let mut other = keys();
        other.whiten ^= 1;
        let mut strict = keys();
        strict.sync_threshold = 65;
        let mut mask = BitVec::zeros(len);
        mask.fill_range(len - 3, len);
        let cases: [(&[u32], Option<&BitVec>, LinkKeys, u64); 5] = [
            (&[], None, keys(), 1),
            (&[200], None, keys(), 0),
            (&[], Some(&mask), keys(), 0),
            (&[], None, other, 0),
            (&[], None, strict, 0),
        ];
        for (flips, mask, k, shortcut) in cases {
            let got = codec.decode_reception(&packet, flips, mask, &k);
            let mut bits = built.clone();
            for &f in flips {
                bits.toggle(f as usize);
            }
            assert_eq!(got, decode(&bits, mask, &k));
            let tally = codec.take_tally();
            assert_eq!(tally.shortcuts, shortcut);
            assert_eq!(tally.images_built, 1 - shortcut);
        }
        assert_eq!(codec.take_tally(), RxTally::default());
        // An ID packet shortcuts on its LAP alone.
        let id = AirPacket::id(keys().lap);
        assert_eq!(
            codec.decode_reception(&id, &[], None, &other),
            Ok(Decoded::Id)
        );
        assert_eq!(codec.take_tally().shortcuts, 1);
    }

    #[test]
    fn air_bits_matches_encoder() {
        let k = keys();
        assert_eq!(air_bits(PacketType::Id, 0, true), 68);
        assert_eq!(air_bits(PacketType::Null, 0, true), 126);
        for (t, len) in [
            (PacketType::Dm1, 17),
            (PacketType::Dm1, 3),
            (PacketType::Dh1, 27),
            (PacketType::Dm3, 121),
            (PacketType::Dh3, 183),
            (PacketType::Dm5, 224),
            (PacketType::Dh5, 339),
            (PacketType::Aux1, 29),
        ] {
            let payload = Payload::Acl {
                llid: Llid::Start,
                flow: false,
                data: vec![0; len],
            };
            let air = encode(&k, &header(t), &payload);
            assert_eq!(air.len(), air_bits(t, len, true), "{t:?}/{len}");
        }
        let air = encode(&k, &header(PacketType::Fhs), &Payload::Fhs(fhs_payload()));
        assert_eq!(air.len(), air_bits(PacketType::Fhs, 0, true));
    }

    #[test]
    fn packets_fit_their_slots() {
        // 1-slot ≤ 366 µs, 3-slot ≤ 1622 µs, 5-slot ≤ 2870 µs.
        let limit = |t: PacketType| match t.slots() {
            1 => 366,
            3 => 1626,
            5 => 2871,
            _ => unreachable!(),
        };
        for t in [
            PacketType::Dm1,
            PacketType::Dh1,
            PacketType::Dm3,
            PacketType::Dh3,
            PacketType::Dm5,
            PacketType::Dh5,
            PacketType::Aux1,
            PacketType::Hv1,
            PacketType::Hv2,
            PacketType::Hv3,
            PacketType::Fhs,
        ] {
            let bits = air_bits(t, t.max_user_bytes(), true);
            assert!(
                bits <= limit(t),
                "{t:?}: {bits} bits exceed {} µs slot budget",
                limit(t)
            );
        }
    }

    #[test]
    fn wrong_lap_gives_no_sync() {
        let air = encode(&keys(), &header(PacketType::Null), &Payload::None);
        let mut k2 = keys();
        k2.lap = 0x111111;
        assert_eq!(decode(&air, None, &k2), Err(DecodeError::NoSync));
    }

    #[test]
    fn wrong_uap_fails_hec() {
        let air = encode(&keys(), &header(PacketType::Null), &Payload::None);
        let mut k2 = keys();
        k2.uap = 0x48;
        assert_eq!(decode(&air, None, &k2), Err(DecodeError::HeaderHec));
    }

    #[test]
    fn wrong_whitening_seed_fails() {
        let air = encode(&keys(), &header(PacketType::Null), &Payload::None);
        let mut k2 = keys();
        k2.whiten = 0x16;
        assert!(decode(&air, None, &k2).is_err());
    }

    #[test]
    fn header_collision_detected() {
        let air = encode(&keys(), &header(PacketType::Null), &Payload::None);
        let mut mask = BitVec::zeros(air.len());
        mask.set(80, true);
        assert_eq!(
            decode(&air, Some(&mask), &keys()),
            Err(DecodeError::HeaderCollision)
        );
    }

    #[test]
    fn payload_collision_detected() {
        let payload = Payload::Acl {
            llid: Llid::Start,
            flow: false,
            data: vec![1, 2, 3],
        };
        let air = encode(&keys(), &header(PacketType::Dm1), &payload);
        let mut mask = BitVec::zeros(air.len());
        mask.set(130, true);
        assert_eq!(
            decode(&air, Some(&mask), &keys()),
            Err(DecodeError::PayloadCollision)
        );
    }

    #[test]
    fn single_payload_bit_error_corrected_by_dm_fec() {
        let payload = Payload::Acl {
            llid: Llid::Start,
            flow: false,
            data: vec![0xAB; 10],
        };
        let air = encode(&keys(), &header(PacketType::Dm1), &payload);
        let mut corrupt = air.clone();
        corrupt.toggle(130);
        assert!(decode(&corrupt, None, &keys()).is_ok());
    }

    #[test]
    fn payload_corruption_caught_by_crc_in_dh() {
        let payload = Payload::Acl {
            llid: Llid::Start,
            flow: false,
            data: vec![0xAB; 10],
        };
        let air = encode(&keys(), &header(PacketType::Dh1), &payload);
        let mut corrupt = air.clone();
        corrupt.toggle(130);
        assert_eq!(
            decode(&corrupt, None, &keys()),
            Err(DecodeError::PayloadCrc)
        );
    }

    #[test]
    fn truncated_packet_is_bad_length() {
        let payload = Payload::Acl {
            llid: Llid::Start,
            flow: false,
            data: vec![1; 17],
        };
        let air = encode(&keys(), &header(PacketType::Dm1), &payload);
        let cut = air.slice(0, 150);
        assert_eq!(decode(&cut, None, &keys()), Err(DecodeError::BadLength));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_payload_panics() {
        let payload = Payload::Acl {
            llid: Llid::Start,
            flow: false,
            data: vec![0; 18],
        };
        encode(&keys(), &header(PacketType::Dm1), &payload);
    }
}
