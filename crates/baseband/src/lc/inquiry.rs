//! Inquiry and inquiry-scan substates (paper §3.1).
//!
//! The inquirer transmits two GIAC ID packets per even slot while
//! sweeping its inquiry train, and listens in the following slot for FHS
//! responses. A scanning device listens continuously (the paper's
//! "RF receiver always active" behaviour, Fig. 5); on hearing an ID it
//! first backs off a random number of slots, then answers the next ID
//! with an FHS carrying its address and clock, backs off again, and keeps
//! scanning.
//!
//! Response frequencies reuse the channel of the triggering ID — the
//! spec's dedicated response sequences guarantee the same rendezvous by
//! construction (see DESIGN.md §1).

use btsim_coding::syncword;
use btsim_kernel::{SimDuration, SimTime};

use crate::address::BdAddr;
use crate::hop::{HopSequence, TrainTable};
use crate::packet::{self, AirPacket, FhsPayload, Header, PacketType, Payload};

use super::{tx_action, LcAction, LcEvent, LifePhase, LinkController, ProcState};

/// GIAC address input to the hop selection box (UAP nibble = DCI = 0).
pub(crate) const GIAC_HOP_INPUT: u32 = syncword::GIAC_LAP;

/// The inquiry and inquiry-scan hops of every controller, built once.
pub(crate) const GIAC_TRAIN: TrainTable = TrainTable::new(GIAC_HOP_INPUT);

/// Inquirer context.
#[derive(Debug, Clone)]
pub(crate) struct InquiryCtx {
    pub num_responses: u8,
    pub timeout_slots: u32,
    pub found: Vec<BdAddr>,
}

/// Scanner context.
#[derive(Debug, Clone)]
pub(crate) struct InquiryScanCtx {
    /// Whether the first ID (pre-backoff) was already heard.
    pub armed: bool,
    /// RF off until this time (random backoff).
    pub backoff_until: Option<SimTime>,
    /// Channel of the currently open scan window.
    pub cur_channel: Option<u8>,
    /// FHS responses transmitted so far.
    pub responses_sent: u32,
}

impl LinkController {
    pub(crate) fn start_inquiry(
        &mut self,
        num_responses: u8,
        timeout_slots: u32,
        now: SimTime,
        out: &mut Vec<LcAction>,
    ) {
        self.mark_proc_start(now);
        self.state = ProcState::Inquiry(InquiryCtx {
            num_responses,
            timeout_slots,
            found: Vec::new(),
        });
        self.set_phase(LifePhase::Inquiry, out);
    }

    pub(crate) fn start_inquiry_scan(&mut self, now: SimTime, out: &mut Vec<LcAction>) {
        self.mark_proc_start(now);
        self.state = ProcState::InquiryScan(InquiryScanCtx {
            armed: false,
            backoff_until: None,
            cur_channel: None,
            responses_sent: 0,
        });
        self.set_phase(LifePhase::InquiryScan, out);
        // Open the scan window immediately.
        let ch = self.inquiry_scan_channel(now);
        if let ProcState::InquiryScan(ctx) = &mut self.state {
            ctx.cur_channel = Some(ch);
        }
        out.push(LcAction::RxWindow {
            from: now,
            until: None,
            rf_channel: ch,
        });
    }

    pub(crate) fn abort_procedure(&mut self, now: SimTime, out: &mut Vec<LcAction>) {
        let _ = now;
        if !matches!(self.state, ProcState::Connection | ProcState::Standby) {
            out.push(LcAction::RxOff);
        }
        self.settle_state(out);
    }

    fn inquiry_scan_channel(&self, now: SimTime) -> u8 {
        GIAC_TRAIN.channel(HopSequence::InquiryScan, self.clkn(now))
    }

    pub(crate) fn tick_inquiry(&mut self, now: SimTime, out: &mut Vec<LcAction>) {
        let clkn = self.clkn(now);
        let ProcState::Inquiry(ctx) = &self.state else {
            return;
        };
        // Timeout?
        if ctx.timeout_slots > 0 && self.proc_ticks(now) >= 2 * ctx.timeout_slots as u64 {
            let responses = ctx.found.len() as u8;
            out.push(LcAction::RxOff);
            out.push(LcAction::Event(LcEvent::InquiryComplete { responses }));
            self.settle_state(out);
            return;
        }
        if !clkn.is_master_tx_slot() {
            return; // Listening windows were scheduled from the TX halves.
        }
        let kofs = self.train_kofs(now);
        let ch = GIAC_TRAIN.channel(HopSequence::Inquiry { kofs }, clkn);
        out.push(tx_action(now, ch, AirPacket::id(syncword::GIAC_LAP)));
        // Listen for the response 625 µs after this ID, for half a slot
        // (an FHS that starts there is received to completion).
        out.push(LcAction::RxWindow {
            from: now + SimDuration::SLOT,
            until: Some(now + SimDuration::SLOT + SimDuration::HALF_SLOT),
            rf_channel: ch,
        });
    }

    pub(crate) fn rx_inquiry(
        &mut self,
        rx: &super::RxDelivery<'_>,
        now: SimTime,
        out: &mut Vec<LcAction>,
    ) {
        let keys = self.giac_keys();
        let Ok(packet::Decoded::Packet {
            header,
            payload: Payload::Fhs(fhs),
        }) = rx.decode(&mut self.codec, &keys)
        else {
            return;
        };
        if header.ptype != PacketType::Fhs {
            return;
        }
        let own_at_start = self.clkn(rx.start);
        let clk_offset = own_at_start.offset_to(fhs.clock());
        let ProcState::Inquiry(ctx) = &mut self.state else {
            return;
        };
        if ctx.found.contains(&fhs.addr) {
            return;
        }
        ctx.found.push(fhs.addr);
        let done = ctx.num_responses > 0 && ctx.found.len() >= ctx.num_responses as usize;
        let responses = ctx.found.len() as u8;
        out.push(LcAction::Event(LcEvent::InquiryResult {
            addr: fhs.addr,
            clk_offset,
        }));
        if done {
            out.push(LcAction::RxOff);
            out.push(LcAction::Event(LcEvent::InquiryComplete { responses }));
            self.settle_state(out);
        }
        let _ = now;
    }

    pub(crate) fn tick_inquiry_scan(&mut self, now: SimTime, out: &mut Vec<LcAction>) {
        let ch = self.inquiry_scan_channel(now);
        let ProcState::InquiryScan(ctx) = &mut self.state else {
            return;
        };
        if let Some(until) = ctx.backoff_until {
            if now >= until {
                ctx.backoff_until = None;
                ctx.cur_channel = Some(ch);
                out.push(LcAction::RxWindow {
                    from: now,
                    until: None,
                    rf_channel: ch,
                });
            }
            return;
        }
        // Scan channel follows CLKN16-12: re-open on epoch change.
        if ctx.cur_channel != Some(ch) {
            ctx.cur_channel = Some(ch);
            out.push(LcAction::RxWindow {
                from: now,
                until: None,
                rf_channel: ch,
            });
        }
    }

    pub(crate) fn rx_inquiry_scan(
        &mut self,
        rx: &super::RxDelivery<'_>,
        now: SimTime,
        out: &mut Vec<LcAction>,
    ) {
        let keys = self.giac_keys();
        let Ok(packet::Decoded::Id) = rx.decode(&mut self.codec, &keys) else {
            return;
        };
        let first_backoff = self
            .rng
            .range_u64(self.cfg.inquiry_backoff_max.max(1) as u64);
        let rearm_backoff = self
            .rng
            .range_u64(self.cfg.inquiry_rearm_backoff_max.max(1) as u64);
        let fhs_at = rx.start + SimDuration::SLOT;
        let clk_at_fhs = self.clkn(fhs_at);
        let addr = self.addr;
        let class_of_device = self.cfg.class_of_device;
        let ProcState::InquiryScan(ctx) = &mut self.state else {
            return;
        };
        if !ctx.armed {
            // First ID: back off a random number of slots before answering
            // (spec v1.2 §8.4.3), RF off meanwhile.
            ctx.armed = true;
            ctx.backoff_until = Some(now + SimDuration::from_slots(first_backoff));
            ctx.cur_channel = None;
            out.push(LcAction::RxOff);
            return;
        }
        // Armed: answer this ID with an FHS 625 µs after its start, then
        // back off again and return to scanning.
        ctx.responses_sent += 1;
        ctx.backoff_until = Some(fhs_at + SimDuration::from_slots(rearm_backoff));
        ctx.cur_channel = None;
        let fhs = FhsPayload {
            addr,
            class_of_device,
            lt_addr: 0,
            clk27_2: clk_at_fhs.clk27_2(),
            page_scan_mode: 0,
            sr: 1,
            sp: 0,
        };
        let header = Header {
            lt_addr: 0,
            ptype: PacketType::Fhs,
            flow: true,
            arqn: false,
            seqn: false,
        };
        let fhs = AirPacket::new(keys, header, &Payload::Fhs(fhs));
        out.push(LcAction::RxOff);
        out.push(tx_action(fhs_at, rx.rf_channel, fhs));
    }
}
