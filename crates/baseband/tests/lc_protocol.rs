//! Protocol-level tests of the link controller as a pure state machine:
//! a miniature harness ticks two controllers and carries their
//! transmissions directly, with no channel or kernel involved. This
//! validates the sans-IO contract the simulator builds on.

use btsim_baseband::{
    AirPacket, BdAddr, ClkVal, Clock, LcAction, LcCommand, LcConfig, LcEvent, LinkController,
    RxDelivery,
};
use btsim_coding::AirImage;
use btsim_kernel::{SimDuration, SimTime};

/// A scheduled transmission in flight between the two controllers.
#[derive(Debug, Clone)]
struct InFlight {
    from: usize,
    at: SimTime,
    rf_channel: u8,
    packet: AirPacket,
}

impl InFlight {
    fn end(&self) -> SimTime {
        self.at + SimDuration::from_bits(self.packet.air_bits())
    }
}

/// Open receive window of one controller.
#[derive(Debug, Clone, Copy)]
struct Window {
    from: SimTime,
    until: Option<SimTime>,
    rf_channel: u8,
}

/// Minimal two-device harness: perfect channel, exact window semantics.
struct Harness {
    lcs: Vec<LinkController>,
    windows: Vec<Option<Window>>,
    pending_windows: Vec<Vec<Window>>,
    air: Vec<InFlight>,
    events: Vec<(SimTime, usize, LcEvent)>,
    now: SimTime,
}

impl Harness {
    fn new(cfg: LcConfig, clkn: [u32; 2]) -> Self {
        let mk = |i: usize, clk: u32| {
            LinkController::new(
                BdAddr::new(0, 0x40 + i as u8, 0x123456 + i as u32 * 0x1111),
                Clock::new(ClkVal::new(clk)),
                cfg.clone(),
                99 + i as u64,
            )
        };
        Self {
            lcs: vec![mk(0, clkn[0]), mk(1, clkn[1])],
            windows: vec![None, None],
            pending_windows: vec![Vec::new(), Vec::new()],
            air: Vec::new(),
            events: Vec::new(),
            now: SimTime::ZERO,
        }
    }

    fn command(&mut self, dev: usize, cmd: LcCommand) {
        let now = self.now;
        let mut actions = Vec::new();
        self.lcs[dev].command(cmd, now, &mut actions);
        self.apply(dev, actions);
    }

    fn apply(&mut self, dev: usize, actions: Vec<LcAction>) {
        for a in actions {
            match a {
                LcAction::Tx {
                    at,
                    rf_channel,
                    packet,
                } => self.air.push(InFlight {
                    from: dev,
                    at,
                    rf_channel,
                    packet,
                }),
                LcAction::RxWindow {
                    from,
                    until,
                    rf_channel,
                } => {
                    let w = Window {
                        from,
                        until,
                        rf_channel,
                    };
                    if from <= self.now {
                        self.windows[dev] = Some(w);
                    } else {
                        self.pending_windows[dev].push(w);
                    }
                }
                LcAction::RxOff => {
                    self.windows[dev] = None;
                    self.pending_windows[dev].clear();
                }
                LcAction::Event(e) => self.events.push((self.now, dev, e)),
            }
        }
    }

    /// Advances one half slot, delivering any due transmissions.
    fn half_slot(&mut self) {
        // Open pending windows due now.
        for dev in 0..self.lcs.len() {
            let due: Vec<Window> = {
                let p = &mut self.pending_windows[dev];
                let due = p.iter().filter(|w| w.from <= self.now).copied().collect();
                p.retain(|w| w.from > self.now);
                due
            };
            if let Some(w) = due.into_iter().last() {
                self.windows[dev] = Some(w);
            }
        }
        // Deliver transmissions ending within this half slot.
        let horizon = self.now + SimDuration::HALF_SLOT;
        let mut due: Vec<InFlight> = Vec::new();
        self.air.retain(|p| {
            if p.end() <= horizon {
                due.push(p.clone());
                false
            } else {
                true
            }
        });
        due.sort_by_key(|p| p.at);
        for p in due {
            let end = p.end();
            for dev in 0..self.lcs.len() {
                if dev == p.from {
                    continue;
                }
                let Some(w) = self.windows[dev] else { continue };
                let open = w.from <= p.at && w.until.is_none_or(|u| u >= p.at);
                if open && w.rf_channel == p.rf_channel {
                    let rx = RxDelivery {
                        packet: &p.packet,
                        flips: &[],
                        collision_mask: None,
                        rf_channel: p.rf_channel,
                        start: p.at,
                        end,
                    };
                    let t = end + SimDuration::from_us(5);
                    let mut actions = Vec::new();
                    self.lcs[dev].on_rx(&rx, t, &mut actions);
                    self.apply(dev, actions);
                }
            }
        }
        // Tick both controllers at the new instant.
        self.now = horizon;
        for dev in 0..self.lcs.len() {
            let now = self.now;
            let mut actions = Vec::new();
            self.lcs[dev].on_tick(now, &mut actions);
            self.apply(dev, actions);
        }
    }

    fn run_slots(&mut self, slots: u64) {
        for _ in 0..slots * 2 {
            self.half_slot();
        }
    }

    fn has_event(&self, dev: usize, pred: impl Fn(&LcEvent) -> bool) -> bool {
        self.events.iter().any(|(_, d, e)| *d == dev && pred(e))
    }
}

fn base_cfg() -> LcConfig {
    LcConfig {
        inquiry_backoff_max: 32,
        inquiry_rearm_backoff_max: 16,
        ..LcConfig::default()
    }
}

#[test]
fn full_page_handshake_at_action_level() {
    let mut h = Harness::new(base_cfg(), [0, 12345 * 4 + 1]);
    let target = h.lcs[1].addr();
    let offset = h.lcs[0]
        .clkn(SimTime::ZERO)
        .offset_to(h.lcs[1].clkn(SimTime::ZERO));
    h.command(1, LcCommand::PageScan);
    h.command(
        0,
        LcCommand::Page {
            target,
            clke_offset: offset,
            timeout_slots: 0,
        },
    );
    h.run_slots(64);
    assert!(
        h.has_event(0, |e| matches!(e, LcEvent::PageComplete { .. })),
        "master must complete the page: events {:?}",
        h.events
    );
    assert!(
        h.has_event(1, |e| matches!(e, LcEvent::Connected { .. })),
        "slave must reach CONNECTION"
    );
    assert!(h.lcs[0].is_master());
    assert!(h.lcs[1].is_slave());
}

#[test]
fn full_inquiry_handshake_at_action_level() {
    let mut h = Harness::new(base_cfg(), [0, 7777]);
    h.command(1, LcCommand::InquiryScan);
    h.command(
        0,
        LcCommand::Inquiry {
            num_responses: 1,
            timeout_slots: 0,
        },
    );
    // Backoff ≤ 32 slots and matching trains: a few hundred slots suffice.
    h.run_slots(1200);
    assert!(
        h.has_event(0, |e| matches!(e, LcEvent::InquiryResult { .. })),
        "inquirer must receive the FHS: events {:?}",
        h.events.len()
    );
    let (_, _, LcEvent::InquiryResult { addr, .. }) = h
        .events
        .iter()
        .find(|(_, d, e)| *d == 0 && matches!(e, LcEvent::InquiryResult { .. }))
        .unwrap()
    else {
        unreachable!()
    };
    assert_eq!(*addr, h.lcs[1].addr());
}

#[test]
fn inquiry_clock_offset_estimate_is_accurate() {
    let mut h = Harness::new(base_cfg(), [0, 31337]);
    h.command(1, LcCommand::InquiryScan);
    h.command(
        0,
        LcCommand::Inquiry {
            num_responses: 1,
            timeout_slots: 0,
        },
    );
    h.run_slots(1200);
    let estimate = h
        .events
        .iter()
        .find_map(|(_, d, e)| match e {
            LcEvent::InquiryResult { clk_offset, .. } if *d == 0 => Some(*clk_offset),
            _ => None,
        })
        .expect("discovery happened");
    let truth = h.lcs[0]
        .clkn(SimTime::ZERO)
        .offset_to(h.lcs[1].clkn(SimTime::ZERO));
    // CLK27-2 truncation allows up to 4 ticks of error.
    let err = (estimate as i64 - truth as i64).rem_euclid(1 << 28);
    let err = err.min((1 << 28) - err);
    assert!(err <= 4, "clock estimate off by {err} ticks");
}

#[test]
fn page_timeout_fires_and_returns_to_standby() {
    let mut h = Harness::new(base_cfg(), [0, 999]);
    let target = h.lcs[1].addr();
    // No scanner: the page must give up after its timeout.
    h.command(
        0,
        LcCommand::Page {
            target,
            clke_offset: 0,
            timeout_slots: 64,
        },
    );
    h.run_slots(80);
    assert!(h.has_event(0, |e| matches!(e, LcEvent::PageFailed { .. })));
    assert!(!h.lcs[0].is_master());
}

#[test]
fn inquiry_timeout_reports_partial_results() {
    let mut h = Harness::new(base_cfg(), [0, 55]);
    // Scanner never enabled: timeout with zero responses.
    h.command(
        0,
        LcCommand::Inquiry {
            num_responses: 1,
            timeout_slots: 128,
        },
    );
    h.run_slots(160);
    assert!(h.has_event(0, |e| matches!(
        e,
        LcEvent::InquiryComplete { responses: 0 }
    )));
}

#[test]
fn poll_exchange_continues_after_connection() {
    let mut h = Harness::new(base_cfg(), [40, 20001]);
    let target = h.lcs[1].addr();
    let offset = h.lcs[0]
        .clkn(SimTime::ZERO)
        .offset_to(h.lcs[1].clkn(SimTime::ZERO));
    h.command(1, LcCommand::PageScan);
    h.command(
        0,
        LcCommand::Page {
            target,
            clke_offset: offset,
            timeout_slots: 0,
        },
    );
    h.run_slots(40);
    assert!(h.lcs[0].is_master());
    // Queue data; it must arrive via the polling discipline.
    let lt = h.lcs[0].connected_slaves()[0].0;
    h.command(
        0,
        LcCommand::AclData {
            lt_addr: lt,
            data: vec![0xAB, 0xCD],
        },
    );
    h.run_slots(250);
    assert!(
        h.has_event(1, |e| matches!(
            e,
            LcEvent::AclReceived { data, .. } if data == &vec![0xAB, 0xCD]
        )),
        "slave must receive the queued payload"
    );
    // The master saw the acknowledgement.
    assert!(h.has_event(0, |e| matches!(e, LcEvent::AclDelivered { .. })));
}

#[test]
fn abort_procedure_stops_scanning() {
    let mut h = Harness::new(base_cfg(), [0, 1]);
    h.command(1, LcCommand::InquiryScan);
    assert!(h.windows[1].is_some(), "scan window must be open");
    h.command(1, LcCommand::AbortProcedure);
    assert!(h.windows[1].is_none(), "abort must close the receiver");
    h.run_slots(4);
    assert!(h.has_event(1, |e| matches!(
        e,
        LcEvent::PhaseChanged {
            phase: btsim_baseband::LifePhase::Standby
        }
    )));
}

#[test]
fn scan_channel_follows_clock_epochs() {
    // The inquiry-scan channel changes when CLKN16-12 changes (every
    // 2048 slots); the controller must re-tune its window.
    let mut h = Harness::new(base_cfg(), [(1 << 12) - 64, 0]);
    h.command(0, LcCommand::InquiryScan);
    let before = h.windows[0].expect("window open").rf_channel;
    // Cross the epoch boundary (32 slots = 64 ticks).
    h.run_slots(64);
    let after = h.windows[0].expect("window still open").rf_channel;
    assert_ne!(before, after, "scan channel must hop at the epoch boundary");
}
