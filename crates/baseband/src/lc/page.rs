//! Page, page scan and the master/slave response substates (paper §3.1).
//!
//! The pager sweeps its page train with the target's DAC, using the clock
//! estimate CLKE learned during inquiry; the A-train covers the estimate
//! mid-train, so an accurate estimate connects within one train pass
//! (the paper's 17-slot average). The exchange is:
//!
//! ```text
//! master: ID(DAC) ──► slave (page scan)
//! slave:  ID(DAC) 625 µs later            (slave response)
//! master: FHS with CLK + LT_ADDR          (master response)
//! slave:  ID(DAC) acknowledging the FHS
//! master: POLL on the connection hopping sequence
//! slave:  NULL — connection established
//! ```

use btsim_kernel::{SimDuration, SimTime};

use crate::address::BdAddr;
use crate::hop::{HopSequence, TrainTable};
use crate::packet::{self, AirPacket, FhsPayload, Header, PacketType, Payload};

use super::connection::{LinkMode, LinkState, MasterCtx, SlaveCtx, SlaveSlot};
use super::{tx_action, LcAction, LcEvent, LifePhase, LinkController, ProcState};

/// Pager context.
#[derive(Debug, Clone)]
pub(crate) struct PageCtx {
    pub target: BdAddr,
    /// The target's page hops, by X (derived from `target`).
    pub train: TrainTable,
    /// CLKE = own CLKN + this offset (estimate of the target's CLKN).
    pub clke_offset: u32,
    pub timeout_slots: u32,
    pub sub: PageSub,
}

#[derive(Debug, Clone)]
pub(crate) enum PageSub {
    /// Sweeping the page train.
    Paging,
    /// Got the slave's ID response; (re)transmitting the FHS.
    MasterResponse {
        /// Channel the exchange continues on.
        channel: u8,
        /// Next FHS (re)transmission time.
        next_fhs_at: SimTime,
        /// Give-up time (pagerespTO).
        deadline: SimTime,
    },
}

/// Page-scan context.
#[derive(Debug, Clone)]
pub(crate) struct PageScanCtx {
    pub sub: PageScanSub,
    /// Channel of the currently open scan window (None while responding
    /// or outside a scan window).
    pub cur_channel: Option<u8>,
}

#[derive(Debug, Clone)]
pub(crate) enum PageScanSub {
    Scanning,
    /// Sent our ID response; waiting for the master's FHS.
    SlaveResponse {
        /// Channel the exchange continues on.
        channel: u8,
        /// Give-up time (pagerespTO).
        deadline: SimTime,
    },
}

impl LinkController {
    pub(crate) fn start_page(
        &mut self,
        target: BdAddr,
        clke_offset: u32,
        timeout_slots: u32,
        now: SimTime,
        out: &mut Vec<LcAction>,
    ) {
        self.mark_proc_start(now);
        self.state = ProcState::Page(PageCtx {
            target,
            train: TrainTable::new(target.hop_input()),
            clke_offset,
            timeout_slots,
            sub: PageSub::Paging,
        });
        self.set_phase(LifePhase::Page, out);
    }

    pub(crate) fn start_page_scan(&mut self, now: SimTime, out: &mut Vec<LcAction>) {
        let addr = self.addr;
        self.own_train
            .get_or_insert_with(|| TrainTable::new(addr.hop_input()));
        self.mark_proc_start(now);
        self.state = ProcState::PageScan(PageScanCtx {
            sub: PageScanSub::Scanning,
            cur_channel: None,
        });
        self.set_phase(LifePhase::PageScan, out);
        let ch = self.page_scan_channel(now);
        if self.page_scan_window_open(now) {
            if let ProcState::PageScan(ctx) = &mut self.state {
                ctx.cur_channel = Some(ch);
            }
            out.push(LcAction::RxWindow {
                from: now,
                until: None,
                rf_channel: ch,
            });
        }
    }

    fn page_scan_channel(&self, now: SimTime) -> u8 {
        self.page_scan_train()
            .channel(HopSequence::PageScan, self.clkn(now))
    }

    /// This device's page-scan hop table; page scan builds it on entry.
    pub(crate) fn page_scan_train(&self) -> &TrainTable {
        self.own_train
            .as_ref()
            .expect("page scan builds the table when it starts")
    }

    /// Whether the page-scan window is open at `now` (always, when
    /// configured continuous).
    fn page_scan_window_open(&self, now: SimTime) -> bool {
        if self.cfg.page_scan_continuous {
            return true;
        }
        let slot_in_interval =
            (self.proc_ticks(now) / 2) % self.cfg.page_scan_interval_slots.max(1) as u64;
        slot_in_interval < self.cfg.page_scan_window_slots as u64
    }

    /// The LT_ADDR the pager will assign to the slave being connected.
    fn next_lt_addr(&self) -> u8 {
        let used: Vec<u8> = self
            .master
            .as_ref()
            .map(|m| m.slaves.iter().map(|s| s.lt_addr).collect())
            .unwrap_or_default();
        (1..=7).find(|lt| !used.contains(lt)).unwrap_or(7)
    }

    /// Builds the page-response FHS of this (future) master.
    fn page_fhs(&self, target: BdAddr, lt_addr: u8, at: SimTime) -> AirPacket {
        let keys = self.dac_keys(target);
        let fhs = FhsPayload {
            addr: self.addr,
            class_of_device: self.cfg.class_of_device,
            lt_addr,
            clk27_2: self.clkn(at).clk27_2(),
            page_scan_mode: 0,
            sr: 1,
            sp: 0,
        };
        let header = Header {
            lt_addr,
            ptype: PacketType::Fhs,
            flow: true,
            arqn: false,
            seqn: false,
        };
        AirPacket::new(keys, header, &Payload::Fhs(fhs))
    }

    pub(crate) fn tick_page(&mut self, now: SimTime, out: &mut Vec<LcAction>) {
        enum Todo {
            Nothing,
            Fail(BdAddr),
            SendId,
            SendFhs { channel: u8, at: SimTime },
        }
        let proc_ticks = self.proc_ticks(now);
        let todo = {
            let ProcState::Page(ctx) = &mut self.state else {
                return;
            };
            if ctx.timeout_slots > 0 && proc_ticks >= 2 * ctx.timeout_slots as u64 {
                Todo::Fail(ctx.target)
            } else {
                match &mut ctx.sub {
                    PageSub::Paging => Todo::SendId,
                    PageSub::MasterResponse {
                        channel,
                        next_fhs_at,
                        deadline,
                    } => {
                        if now >= *deadline {
                            ctx.sub = PageSub::Paging;
                            Todo::Nothing
                        } else if now >= *next_fhs_at {
                            let at = *next_fhs_at;
                            let ch = *channel;
                            *next_fhs_at = at + SimDuration::from_slots(2);
                            Todo::SendFhs { channel: ch, at }
                        } else {
                            Todo::Nothing
                        }
                    }
                }
            }
        };
        match todo {
            Todo::Nothing => {}
            Todo::Fail(target) => {
                out.push(LcAction::RxOff);
                out.push(LcAction::Event(LcEvent::PageFailed { addr: target }));
                self.settle_state(out);
            }
            Todo::SendId => {
                let (target, train, clke_offset) = {
                    let ProcState::Page(ctx) = &self.state else {
                        return;
                    };
                    (ctx.target, ctx.train, ctx.clke_offset)
                };
                // Timing follows the pager's own clock (its slot grid will
                // become the piconet grid); only the hop phase uses CLKE.
                if !self.clkn(now).is_master_tx_slot() {
                    return;
                }
                let clke = self.clkn(now).offset_by(clke_offset);
                let kofs = self.train_kofs(now);
                let ch = train.channel(HopSequence::Page { kofs }, clke);
                out.push(tx_action(now, ch, AirPacket::id(target.lap())));
                out.push(LcAction::RxWindow {
                    from: now + SimDuration::SLOT,
                    until: Some(now + SimDuration::SLOT + SimDuration::HALF_SLOT),
                    rf_channel: ch,
                });
            }
            Todo::SendFhs { channel, at } => {
                let target = {
                    let ProcState::Page(ctx) = &self.state else {
                        return;
                    };
                    ctx.target
                };
                let lt_addr = self.next_lt_addr();
                let fhs = self.page_fhs(target, lt_addr, at);
                out.push(tx_action(at, channel, fhs));
                out.push(LcAction::RxWindow {
                    from: at + SimDuration::SLOT,
                    until: Some(at + SimDuration::SLOT + SimDuration::HALF_SLOT),
                    rf_channel: channel,
                });
            }
        }
    }

    pub(crate) fn rx_page(
        &mut self,
        rx: &super::RxDelivery<'_>,
        now: SimTime,
        out: &mut Vec<LcAction>,
    ) {
        let (target, keys) = {
            let ProcState::Page(ctx) = &self.state else {
                return;
            };
            (ctx.target, self.dac_keys(ctx.target))
        };
        let Ok(packet::Decoded::Id) = rx.decode(&mut self.codec, &keys) else {
            return;
        };
        let pageresp = SimDuration::from_slots(self.cfg.page_resp_timeout_slots as u64);
        let got_ack = {
            let ProcState::Page(ctx) = &mut self.state else {
                return;
            };
            match &ctx.sub {
                PageSub::Paging => {
                    // Slave response heard. The FHS must leave at one of
                    // our own master-to-slave *slot starts* (CLK1,0 = 00):
                    // its CLK27-2 field implies zero low clock bits, and
                    // the slave derives the piconet timing from it.
                    let mut fhs_at = rx.start + SimDuration::SLOT;
                    while self.clock.clkn_at(fhs_at).bits(1, 0) != 0 {
                        fhs_at += SimDuration::HALF_SLOT;
                    }
                    ctx.sub = PageSub::MasterResponse {
                        channel: rx.rf_channel,
                        next_fhs_at: fhs_at,
                        deadline: now + pageresp,
                    };
                    false
                }
                PageSub::MasterResponse { .. } => true,
            }
        };
        if got_ack {
            // The slave acknowledged the FHS: the piconet link exists.
            let lt_addr = self.next_lt_addr();
            let newconn_deadline = now.slots() + self.cfg.new_connection_timeout_slots as u64;
            let master = self.master.get_or_insert_with(MasterCtx::new);
            let mut slot = SlaveSlot::new(lt_addr, target);
            slot.newconn_deadline_slot = Some(newconn_deadline);
            master.slaves.push(slot);
            out.push(LcAction::RxOff);
            out.push(LcAction::Event(LcEvent::PageComplete {
                addr: target,
                lt_addr,
            }));
            self.settle_state(out);
        }
    }

    pub(crate) fn tick_page_scan(&mut self, now: SimTime, out: &mut Vec<LcAction>) {
        let ch = self.page_scan_channel(now);
        let window_open = self.page_scan_window_open(now);
        let ProcState::PageScan(ctx) = &mut self.state else {
            return;
        };
        match &ctx.sub {
            PageScanSub::Scanning => {
                if window_open {
                    if ctx.cur_channel != Some(ch) {
                        ctx.cur_channel = Some(ch);
                        out.push(LcAction::RxWindow {
                            from: now,
                            until: None,
                            rf_channel: ch,
                        });
                    }
                } else if ctx.cur_channel.is_some() {
                    ctx.cur_channel = None;
                    out.push(LcAction::RxOff);
                }
            }
            PageScanSub::SlaveResponse { deadline, .. } => {
                if now >= *deadline {
                    // No FHS in time: back to scanning.
                    ctx.sub = PageScanSub::Scanning;
                    ctx.cur_channel = Some(ch);
                    out.push(LcAction::RxWindow {
                        from: now,
                        until: None,
                        rf_channel: ch,
                    });
                }
            }
        }
    }

    pub(crate) fn rx_page_scan(
        &mut self,
        rx: &super::RxDelivery<'_>,
        now: SimTime,
        out: &mut Vec<LcAction>,
    ) {
        let keys = self.dac_keys(self.addr);
        let Ok(decoded) = rx.decode(&mut self.codec, &keys) else {
            return;
        };
        let pageresp = SimDuration::from_slots(self.cfg.page_resp_timeout_slots as u64);
        let newconn = self.cfg.new_connection_timeout_slots;
        let own_at_fhs_start = self.clkn(rx.start);
        let own_lap = self.addr.lap();
        enum Todo {
            Nothing,
            Respond,
            Join { fhs: FhsPayload, channel: u8 },
        }
        let todo = {
            let ProcState::PageScan(ctx) = &mut self.state else {
                return;
            };
            match (&ctx.sub, decoded) {
                (PageScanSub::Scanning, packet::Decoded::Id) => {
                    let resp_at = rx.start + SimDuration::SLOT;
                    ctx.sub = PageScanSub::SlaveResponse {
                        channel: rx.rf_channel,
                        deadline: resp_at + pageresp,
                    };
                    ctx.cur_channel = None;
                    Todo::Respond
                }
                (
                    PageScanSub::SlaveResponse { channel, .. },
                    packet::Decoded::Packet {
                        payload: Payload::Fhs(fhs),
                        ..
                    },
                ) => Todo::Join {
                    fhs,
                    channel: *channel,
                },
                _ => Todo::Nothing,
            }
        };
        match todo {
            Todo::Nothing => {}
            Todo::Respond => {
                let resp_at = rx.start + SimDuration::SLOT;
                out.push(tx_action(resp_at, rx.rf_channel, AirPacket::id(own_lap)));
                // Keep listening on the exchange channel for the FHS.
                out.push(LcAction::RxWindow {
                    from: resp_at + SimDuration::from_bits(68),
                    until: None,
                    rf_channel: rx.rf_channel,
                });
            }
            Todo::Join { fhs, channel } => {
                // FHS received: acknowledge with ID, join the piconet.
                let ack_at = rx.start + SimDuration::SLOT;
                out.push(tx_action(ack_at, channel, AirPacket::id(own_lap)));
                out.push(LcAction::RxOff);
                let clk_offset = own_at_fhs_start.offset_to(fhs.clock());
                // Re-joining the same piconet replaces the old link; a
                // link to a *different* master is kept — the device
                // becomes a scatternet bridge with one SlaveCtx per
                // piconet.
                self.slave_links.retain(|s| s.master != fhs.addr);
                self.slave_links.push(SlaveCtx::new(
                    fhs.addr,
                    fhs.lt_addr,
                    clk_offset,
                    now.slots() + newconn as u64,
                ));
                self.state = ProcState::Connection;
                self.set_phase(self.connection_phase(), out);
            }
        }
    }
}

// Constructors for the link contexts created on page completion.
impl SlaveSlot {
    pub(crate) fn new(lt_addr: u8, addr: BdAddr) -> Self {
        SlaveSlot {
            lt_addr,
            addr,
            mode: LinkMode::Active,
            sco: None,
            sco_out: std::collections::VecDeque::new(),
            sniff: None,
            sniff_ext_until_slot: None,
            hold_until_slot: None,
            sup_hold_excuse_slot: None,
            park_beacon_interval: 0,
            parked_lt: 0,
            last_poll_slot: 0,
            poll_asap: true,
            newconn_deadline_slot: None,
            last_rx_slot: 0,
            link: LinkState::new(),
        }
    }
}

impl SlaveCtx {
    pub(crate) fn new(master: BdAddr, lt_addr: u8, clk_offset: u32, newconn_deadline: u64) -> Self {
        SlaveCtx {
            master,
            lt_addr,
            clk_offset,
            mode: LinkMode::Active,
            sco: None,
            sco_out: std::collections::VecDeque::new(),
            sniff: None,
            sniff_ext_until_slot: None,
            hold_until_slot: None,
            sup_hold_excuse_slot: None,
            park_beacon_interval: 0,
            parked_lt: 0,
            newconn_deadline_slot: Some(newconn_deadline),
            last_rx_slot: 0,
            resync: false,
            link: LinkState::new(),
            listening_full_slot: true,
            busy_until: SimTime::ZERO,
        }
    }
}
