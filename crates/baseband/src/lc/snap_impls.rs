//! [`Snap`] wire forms for the link-controller state tree.
//!
//! Everything a [`LinkController`] holds — procedure contexts, per-link
//! ARQ state, AFH maps and the RNG position — roundtrips through the
//! kernel's snapshot codec, and so do the keys, header and payload of
//! the [`AirPacket`](packet::AirPacket) a transmission in flight carries. The packet [`Codec`](packet::Codec) is the
//! one deliberate exception: it is a pure memoization of access-code
//! images, so restore rebuilds it empty and the caches refill
//! identically on demand (cache state never influences behaviour).
//!
//! Decoding is total: malformed bytes produce a
//! [`SnapshotError`], never a panic, and semantic invariants (clock
//! range, RF channels < 79, AFH map floor, fragment offsets) are
//! checked before any panicking constructor runs.

use btsim_kernel::{snap_enum, snap_struct, Snap, SnapReader, SnapWriter, SnapshotError};

use crate::address::BdAddr;
use crate::clock::{ClkVal, Clock, CLK_WRAP};
use crate::hop::{ChannelMap, TrainTable, CHANNELS, CHANNEL_MAP_BYTES};
use crate::packet::{self, FhsPayload, Header, LinkKeys, Llid, PacketType, Payload};

use super::connection::{
    LinkMode, LinkState, MasterCtx, ScoParams, SlaveCtx, SlaveSlot, SniffParams,
};
use super::inquiry::{InquiryCtx, InquiryScanCtx};
use super::page::{PageCtx, PageScanCtx, PageScanSub, PageSub};
use super::{LcCommand, LcConfig, LcEvent, LifePhase, LinkController, ProcState};

fn rf_channel(r: &mut SnapReader<'_>) -> Result<u8, SnapshotError> {
    let ch = r.take_u8()?;
    if ch >= CHANNELS {
        return Err(r.malformed("RF channel out of range"));
    }
    Ok(ch)
}

fn scan_channel(r: &mut SnapReader<'_>) -> Result<Option<u8>, SnapshotError> {
    let ch: Option<u8> = Snap::unsnap(r)?;
    if ch.is_some_and(|ch| ch >= CHANNELS) {
        return Err(r.malformed("scan channel out of range"));
    }
    Ok(ch)
}

impl Snap for BdAddr {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.raw());
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let raw = r.take_u64()?;
        if raw > 0xFFFF_FFFF_FFFF {
            return Err(r.malformed("BD_ADDR wider than 48 bits"));
        }
        Ok(BdAddr::from_raw(raw))
    }
}

impl Snap for ClkVal {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u32(self.raw());
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let raw = r.take_u32()?;
        if raw >= CLK_WRAP {
            return Err(r.malformed("clock value wider than 28 bits"));
        }
        Ok(ClkVal::new(raw))
    }
}

impl Snap for Clock {
    fn snap(&self, w: &mut SnapWriter) {
        self.start_value().snap(w);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Clock::new(ClkVal::unsnap(r)?))
    }
}

snap_enum! {
    PacketType {
        0 => Id,
        1 => Null,
        2 => Poll,
        3 => Fhs,
        4 => Dm1,
        5 => Dh1,
        6 => Dm3,
        7 => Dh3,
        8 => Dm5,
        9 => Dh5,
        10 => Aux1,
        11 => Hv1,
        12 => Hv2,
        13 => Hv3,
        14 => Dv,
    } else "unknown packet-type tag"
}

snap_enum! {
    Llid {
        0 => Continuation,
        1 => Start,
        2 => Lmp,
    } else "unknown LLID tag"
}

snap_struct! { LinkKeys { lap, uap, whiten, sync_threshold, fhs_fec } }

snap_struct! { Header { lt_addr, ptype, flow, arqn, seqn } }

snap_struct! {
    FhsPayload { addr, class_of_device, lt_addr, clk27_2, page_scan_mode, sr, sp }
}

snap_enum! {
    Payload {
        0 => None,
        1 => Fhs(fhs),
        2 => Acl { llid, flow, data },
        3 => Sco(data),
    } else "unknown payload tag"
}

snap_enum! {
    LifePhase {
        0 => Standby,
        1 => Inquiry,
        2 => InquiryScan,
        3 => Page,
        4 => PageScan,
        5 => Active,
        6 => Sniff,
        7 => Hold,
        8 => Park,
    } else "unknown life-phase tag"
}

snap_enum! {
    LinkMode {
        0 => Active,
        1 => Sniff,
        2 => Hold,
        3 => Park,
    } else "unknown link-mode tag"
}

snap_struct! { ScoParams { t_sco, d_sco, ptype } }

snap_struct! { SniffParams { t_sniff, n_attempt, d_sniff, n_timeout } }

impl Snap for ChannelMap {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_bytes(&self.to_bytes());
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let bytes = r.take_bytes()?;
        let arr: [u8; CHANNEL_MAP_BYTES] = bytes
            .as_slice()
            .try_into()
            .map_err(|_| r.malformed("channel map is not 10 bytes"))?;
        ChannelMap::from_bytes(&arr).map_err(|_| r.malformed("channel map below the AFH floor"))
    }
}

snap_struct! {
    LcConfig {
        sync_threshold,
        page_fhs_fec,
        peek_us,
        inquiry_backoff_max,
        inquiry_rearm_backoff_max,
        train_switch_slots,
        page_resp_timeout_slots,
        new_connection_timeout_slots,
        t_poll_slots,
        default_acl,
        inquiry_scan_continuous,
        page_scan_continuous,
        page_scan_interval_slots,
        page_scan_window_slots,
        resync_guard_slots,
        sniff_listen_us,
        sniff_drift_ppm,
        class_of_device,
        supervision_timeout_slots,
    }
}

snap_enum! {
    LcCommand {
        0 => Inquiry { num_responses, timeout_slots },
        1 => InquiryScan,
        2 => Page { target, clke_offset, timeout_slots },
        3 => PageScan,
        4 => AbortProcedure,
        5 => AclData { lt_addr, data },
        6 => Lmp { lt_addr, data },
        7 => SetAclType(ptype),
        8 => SetTpoll(t_poll),
        9 => SetAfh(map),
        10 => SetAfhAt { map, at_slot },
        11 => CancelAfhSwitch,
        12 => ScoSetup { lt_addr, params },
        13 => ScoRemove { lt_addr },
        14 => ScoData { lt_addr, data },
        15 => Sniff { lt_addr, params },
        16 => Unsniff { lt_addr },
        17 => Hold { lt_addr, hold_slots },
        18 => HoldPiconet { master, hold_slots },
        19 => AclDataTo { master, data },
        20 => Park { lt_addr, beacon_interval },
        21 => Unpark { lt_addr },
        22 => Detach { lt_addr },
        23 => SetSupervisionTimeout { timeout_slots },
        24 => PowerOff,
    } else "unknown LC command tag"
}

snap_enum! {
    LcEvent {
        0 => InquiryResult { addr, clk_offset },
        1 => InquiryComplete { responses },
        2 => PageComplete { addr, lt_addr },
        3 => PageFailed { addr },
        4 => Connected { master, lt_addr },
        5 => AclReceived { lt_addr, llid, data },
        6 => AclDelivered { lt_addr },
        7 => ScoReceived { lt_addr, data },
        8 => ModeChanged { lt_addr, mode },
        9 => Detached { lt_addr },
        10 => PhaseChanged { phase },
        11 => FidelityChanged { promoted },
        12 => SupervisionTimeout { lt_addr },
    } else "unknown LC event tag"
}

snap_struct! { LinkState { tx, in_flight, seqn_out, last_seqn_in, arqn_to_send } }

snap_struct! {
    SlaveSlot {
        lt_addr,
        addr,
        mode,
        sco,
        sco_out,
        sniff,
        sniff_ext_until_slot,
        hold_until_slot,
        sup_hold_excuse_slot,
        park_beacon_interval,
        parked_lt,
        last_poll_slot,
        poll_asap,
        newconn_deadline_slot,
        last_rx_slot,
        link,
    }
}

snap_struct! { MasterCtx { slaves, busy_until, awaiting } }

snap_struct! {
    SlaveCtx {
        master,
        lt_addr,
        clk_offset,
        mode,
        sco,
        sco_out,
        sniff,
        sniff_ext_until_slot,
        hold_until_slot,
        sup_hold_excuse_slot,
        park_beacon_interval,
        parked_lt,
        newconn_deadline_slot,
        last_rx_slot,
        resync,
        link,
        listening_full_slot,
        busy_until,
    }
}

snap_struct! { InquiryCtx { num_responses, timeout_slots, found } }

snap_struct! {
    InquiryScanCtx { armed, backoff_until, cur_channel via scan_channel, responses_sent }
}

snap_enum! {
    PageSub {
        0 => Paging,
        1 => MasterResponse { channel via rf_channel, next_fhs_at, deadline },
    } else "unknown page substate tag"
}

snap_struct! {
    PageCtx { target, clke_offset, timeout_slots, sub }
    skip { train = TrainTable::new(BdAddr::hop_input(target)) }
}

snap_enum! {
    PageScanSub {
        0 => Scanning,
        1 => SlaveResponse { channel via rf_channel, deadline },
    } else "unknown page-scan substate tag"
}

snap_struct! { PageScanCtx { sub, cur_channel via scan_channel } }

snap_enum! {
    ProcState {
        0 => Standby,
        1 => Inquiry(ctx),
        2 => InquiryScan(ctx),
        3 => Page(ctx),
        4 => PageScan(ctx),
        5 => Connection,
    } else "unknown procedure-state tag"
}

// The codec is a pure access-code memoization: rebuilt empty on
// restore, refilled on demand with bit-identical images. The page-scan
// hop table is derived from the address; a controller restored in page
// scan needs it at once, any other builds it when page scan starts.
snap_struct! {
    LinkController {
        cfg,
        addr,
        clock,
        rng,
        state,
        master,
        slave_links,
        acl_type,
        t_poll,
        afh,
        afh_pending,
        assessment,
        phase,
        proc_start_tick,
        ff_until,
        stat_promoted,
        dropped_tx_bytes,
    }
    skip {
        codec = packet::Codec::new(),
        own_train = matches!(state, ProcState::PageScan(_))
            .then(|| TrainTable::new(BdAddr::hop_input(addr))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btsim_kernel::{SimRng, SimTime};
    use std::collections::VecDeque;

    fn snap_bytes<T: Snap>(v: &T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.snap(&mut w);
        w.into_bytes()
    }

    fn unsnap_all<T: Snap>(bytes: &[u8]) -> Result<T, SnapshotError> {
        let mut r = SnapReader::new(bytes);
        let v = T::unsnap(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// A controller mid-procedure with a populated connection tree.
    fn busy_controller() -> LinkController {
        let mut lc = LinkController::new(
            BdAddr::new(0xAB, 0xCD, 0x123456),
            Clock::new(ClkVal::new(42)),
            LcConfig::default(),
            7,
        );
        // Burn some RNG draws so the stream position is non-trivial.
        for _ in 0..5 {
            lc.rng.range_u64(1 << 20);
        }
        lc.afh = Some(ChannelMap::blocking(10..40));
        lc.afh_pending = Some((ChannelMap::blocking(50..70), 12_345));
        lc.assessment.note(3, true);
        lc.assessment.note(61, false);
        lc.acl_type = PacketType::Dh3;
        lc.t_poll = 36;
        lc.phase = LifePhase::Active;
        lc.proc_start_tick = 99;
        lc.stat_promoted = true;
        lc.state = ProcState::Connection;

        let mut link = LinkState::new();
        link.tx.push(Llid::Start, vec![1, 2, 3, 4]);
        link.tx.push(Llid::Lmp, vec![0x51]);
        link.in_flight = Some((Llid::Start, vec![9, 9]));
        link.last_seqn_in = Some(true);
        link.arqn_to_send = true;
        let slot = SlaveSlot {
            lt_addr: 1,
            addr: BdAddr::new(0, 1, 2),
            mode: LinkMode::Sniff,
            sco: Some(ScoParams::for_type(PacketType::Hv3, 2)),
            sco_out: VecDeque::from(vec![7, 8, 9]),
            sniff: Some(SniffParams::default()),
            sniff_ext_until_slot: Some(400),
            hold_until_slot: None,
            sup_hold_excuse_slot: None,
            park_beacon_interval: 0,
            parked_lt: 0,
            last_poll_slot: 300,
            poll_asap: true,
            newconn_deadline_slot: Some(500),
            last_rx_slot: 250,
            link,
        };
        lc.master = Some(MasterCtx {
            slaves: vec![slot],
            busy_until: SimTime::from_us(1250),
            awaiting: Some((1, SimTime::from_us(1875))),
        });
        lc.slave_links = vec![SlaveCtx {
            master: BdAddr::new(5, 6, 7),
            lt_addr: 2,
            clk_offset: 1024,
            mode: LinkMode::Active,
            sco: None,
            sco_out: VecDeque::new(),
            sniff: None,
            sniff_ext_until_slot: None,
            hold_until_slot: Some(900),
            sup_hold_excuse_slot: Some(900),
            park_beacon_interval: 0,
            parked_lt: 0,
            newconn_deadline_slot: None,
            last_rx_slot: 800,
            resync: true,
            link: LinkState::new(),
            listening_full_slot: true,
            busy_until: SimTime::from_us(625),
        }];
        lc.dropped_tx_bytes = 123;
        lc
    }

    #[test]
    fn controller_roundtrips_bit_exactly() {
        let lc = busy_controller();
        let bytes = snap_bytes(&lc);
        let mut back: LinkController = unsnap_all(&bytes).expect("roundtrip");
        // Byte-stable: re-encoding the restored controller is identical.
        assert_eq!(snap_bytes(&back), bytes);
        // The RNG stream resumes exactly where the original would.
        let mut orig = lc;
        assert_eq!(back.rng.fingerprint(), orig.rng.fingerprint());
        assert_eq!(back.rng.range_u64(1 << 20), orig.rng.range_u64(1 << 20));
        assert_eq!(back.addr(), orig.addr());
        assert_eq!(back.queued_tx_bytes(), orig.queued_tx_bytes());
        assert_eq!(back.connected_slaves(), orig.connected_slaves());
        assert_eq!(back.slave_masters(), orig.slave_masters());
    }

    #[test]
    fn procedure_states_roundtrip() {
        for state in [
            ProcState::Standby,
            ProcState::Inquiry(InquiryCtx {
                num_responses: 3,
                timeout_slots: 8192,
                found: vec![BdAddr::new(1, 2, 3)],
            }),
            ProcState::InquiryScan(InquiryScanCtx {
                armed: true,
                backoff_until: Some(SimTime::from_us(10_000)),
                cur_channel: Some(17),
                responses_sent: 2,
            }),
            ProcState::Page(PageCtx {
                target: BdAddr::new(9, 9, 9),
                train: TrainTable::new(BdAddr::new(9, 9, 9).hop_input()),
                clke_offset: 77,
                timeout_slots: 4096,
                sub: PageSub::MasterResponse {
                    channel: 33,
                    next_fhs_at: SimTime::from_us(100),
                    deadline: SimTime::from_us(5000),
                },
            }),
            ProcState::PageScan(PageScanCtx {
                sub: PageScanSub::SlaveResponse {
                    channel: 5,
                    deadline: SimTime::from_us(2000),
                },
                cur_channel: None,
            }),
            ProcState::Connection,
        ] {
            let bytes = snap_bytes(&state);
            let back: ProcState = unsnap_all(&bytes).expect("roundtrip");
            assert_eq!(snap_bytes(&back), bytes);
        }
    }

    #[test]
    fn every_tagged_enum_roundtrips() {
        for t in [
            PacketType::Id,
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
            assert_eq!(unsnap_all::<PacketType>(&snap_bytes(&t)).unwrap(), t);
        }
        for l in [Llid::Continuation, Llid::Start, Llid::Lmp] {
            assert_eq!(unsnap_all::<Llid>(&snap_bytes(&l)).unwrap(), l);
        }
        for p in [
            LifePhase::Standby,
            LifePhase::Inquiry,
            LifePhase::InquiryScan,
            LifePhase::Page,
            LifePhase::PageScan,
            LifePhase::Active,
            LifePhase::Sniff,
            LifePhase::Hold,
            LifePhase::Park,
        ] {
            assert_eq!(unsnap_all::<LifePhase>(&snap_bytes(&p)).unwrap(), p);
        }
        for m in [
            LinkMode::Active,
            LinkMode::Sniff,
            LinkMode::Hold,
            LinkMode::Park,
        ] {
            assert_eq!(unsnap_all::<LinkMode>(&snap_bytes(&m)).unwrap(), m);
        }
    }

    #[test]
    fn commands_and_events_roundtrip() {
        let cmds = vec![
            LcCommand::Inquiry {
                num_responses: 4,
                timeout_slots: 100,
            },
            LcCommand::InquiryScan,
            LcCommand::Page {
                target: BdAddr::new(1, 2, 3),
                clke_offset: 9,
                timeout_slots: 50,
            },
            LcCommand::PageScan,
            LcCommand::AbortProcedure,
            LcCommand::AclData {
                lt_addr: 1,
                data: vec![1, 2, 3],
            },
            LcCommand::Lmp {
                lt_addr: 2,
                data: vec![0x51, 7],
            },
            LcCommand::SetAclType(PacketType::Dh5),
            LcCommand::SetTpoll(40),
            LcCommand::SetAfh(ChannelMap::blocking(0..30)),
            LcCommand::SetAfhAt {
                map: ChannelMap::blocking(40..59),
                at_slot: 777,
            },
            LcCommand::CancelAfhSwitch,
            LcCommand::ScoSetup {
                lt_addr: 1,
                params: ScoParams::for_type(PacketType::Hv2, 0),
            },
            LcCommand::ScoRemove { lt_addr: 1 },
            LcCommand::ScoData {
                lt_addr: 1,
                data: vec![6; 10],
            },
            LcCommand::Sniff {
                lt_addr: 3,
                params: SniffParams::default(),
            },
            LcCommand::Unsniff { lt_addr: 3 },
            LcCommand::Hold {
                lt_addr: 1,
                hold_slots: 200,
            },
            LcCommand::HoldPiconet {
                master: BdAddr::new(4, 5, 6),
                hold_slots: 300,
            },
            LcCommand::AclDataTo {
                master: BdAddr::new(4, 5, 6),
                data: vec![1],
            },
            LcCommand::Park {
                lt_addr: 2,
                beacon_interval: 64,
            },
            LcCommand::Unpark { lt_addr: 2 },
            LcCommand::Detach { lt_addr: 1 },
            LcCommand::SetSupervisionTimeout {
                timeout_slots: 16_000,
            },
            LcCommand::PowerOff,
        ];
        for cmd in cmds {
            assert_eq!(unsnap_all::<LcCommand>(&snap_bytes(&cmd)).unwrap(), cmd);
        }
        let events = vec![
            LcEvent::InquiryResult {
                addr: BdAddr::new(1, 2, 3),
                clk_offset: 5,
            },
            LcEvent::InquiryComplete { responses: 2 },
            LcEvent::PageComplete {
                addr: BdAddr::new(1, 2, 3),
                lt_addr: 1,
            },
            LcEvent::PageFailed {
                addr: BdAddr::new(1, 2, 3),
            },
            LcEvent::Connected {
                master: BdAddr::new(9, 8, 7),
                lt_addr: 2,
            },
            LcEvent::AclReceived {
                lt_addr: 1,
                llid: Llid::Start,
                data: vec![1, 2],
            },
            LcEvent::AclDelivered { lt_addr: 1 },
            LcEvent::ScoReceived {
                lt_addr: 1,
                data: vec![3; 30],
            },
            LcEvent::ModeChanged {
                lt_addr: 1,
                mode: LinkMode::Sniff,
            },
            LcEvent::Detached { lt_addr: 1 },
            LcEvent::PhaseChanged {
                phase: LifePhase::Hold,
            },
            LcEvent::FidelityChanged { promoted: true },
            LcEvent::SupervisionTimeout { lt_addr: 1 },
        ];
        for ev in events {
            assert_eq!(unsnap_all::<LcEvent>(&snap_bytes(&ev)).unwrap(), ev);
        }
    }

    #[test]
    fn malformed_controller_bytes_are_rejected_not_panicking() {
        let bytes = snap_bytes(&busy_controller());
        // Truncation at every cut point fails cleanly.
        for cut in 0..bytes.len() {
            assert!(
                unsnap_all::<LinkController>(&bytes[..cut]).is_err(),
                "cut at {cut} must be rejected"
            );
        }
        // Trailing garbage is rejected too.
        let mut long = bytes.clone();
        long.push(0);
        assert!(unsnap_all::<LinkController>(&long).is_err());
        // A clock wider than 28 bits is semantic garbage.
        let mut w = SnapWriter::new();
        w.put_u32(CLK_WRAP);
        assert!(unsnap_all::<ClkVal>(w.as_bytes()).is_err());
        // A channel map below the AFH floor is rejected at decode.
        let mut w = SnapWriter::new();
        w.put_bytes(&[0u8; CHANNEL_MAP_BYTES]);
        assert!(unsnap_all::<ChannelMap>(w.as_bytes()).is_err());
        // Out-of-range RF channel in a page response.
        let mut w = SnapWriter::new();
        w.put_u8(1);
        w.put_u8(79);
        SimTime::from_us(1).snap(&mut w);
        SimTime::from_us(2).snap(&mut w);
        assert!(unsnap_all::<PageSub>(w.as_bytes()).is_err());
    }

    #[test]
    fn reseed_matches_a_fresh_controller_stream() {
        let mut lc = busy_controller();
        lc.reseed(0xFEED);
        let mut fresh = SimRng::new(0xFEED);
        assert_eq!(lc.rng.fingerprint(), fresh.fingerprint());
        assert_eq!(lc.rng.range_u64(1 << 20), fresh.range_u64(1 << 20));
    }
}
