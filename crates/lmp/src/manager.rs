//! The Link Manager state machine (the paper's Link Manager Layer).
//!
//! One [`LinkManager`] sits above each link controller. It translates
//! host requests into LMP transactions (request → accepted/not-accepted),
//! coordinates mode changes so both ends switch at the same piconet slot,
//! and reports results upward as [`LmEvent`]s.

use std::collections::VecDeque;

use btsim_baseband::hop::ChannelMap;
use btsim_baseband::{LcCommand, LcEvent, Llid, PacketType, ScoParams, SniffParams};

use crate::pdu::{Opcode, Pdu};

/// Where the manager sits on a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LmRole {
    /// The piconet master side.
    Master,
    /// A slave side.
    Slave,
}

/// Indications to the host / scenario layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LmEvent {
    /// LMP connection setup finished on this link.
    SetupComplete {
        /// Link the setup completed on.
        lt_addr: u8,
    },
    /// The peer rejected a request.
    Rejected {
        /// Which request was rejected.
        of: Opcode,
        /// Error code.
        reason: u8,
    },
    /// A negotiated mode change was issued to the baseband.
    ModeApplied {
        /// Link affected.
        lt_addr: u8,
        /// The request that triggered it.
        of: Opcode,
    },
    /// The peer asked to detach.
    PeerDetached {
        /// Link affected.
        lt_addr: u8,
        /// Error code carried by `LMP_detach` (e.g. 0x13 user-requested,
        /// 0x08 supervision timeout).
        reason: u8,
    },
    /// The peer accepted our `LMP_set_AFH`; both ends switch at the
    /// announced instant.
    AfhAccepted {
        /// Link the map exchange ran on.
        lt_addr: u8,
    },
    /// A slave reported its channel classification (`LMP_channel_classification`).
    /// The master-side host combines this with its own assessment and
    /// decides whether to issue a new `LMP_set_AFH`.
    ChannelClassification {
        /// Link the report arrived on.
        lt_addr: u8,
        /// Channels the slave considers usable.
        map: ChannelMap,
    },
    /// A request with a response deadline got no answer in time. For
    /// `LMP_set_AFH` the local switch is *kept*: the slave schedules its
    /// switch on reception, so by the deadline (the switch instant) it
    /// has either switched — cancelling locally would desynchronise the
    /// hop sequences — or never heard the request, in which case the
    /// link is failing anyway and the host should re-negotiate or
    /// detach.
    RequestTimedOut {
        /// Link the request was sent on.
        lt_addr: u8,
        /// The unanswered request.
        of: Opcode,
    },
}

/// Outputs of the manager: baseband commands and host events.
#[derive(Debug, Clone, PartialEq)]
pub enum LmOutput {
    /// A command for the link controller.
    Command(LcCommand),
    /// An indication for the host.
    Event(LmEvent),
}

/// A mode change agreed via LMP, applied when the slot counter reaches
/// `at_slot` (both sides compute the same instant).
#[derive(Debug, Clone, PartialEq)]
struct PendingMode {
    at_slot: u64,
    command: LcCommand,
    of: Opcode,
    lt_addr: u8,
}

/// A request we sent and await a response for, with an optional
/// response deadline (slot) after which [`LinkManager::poll`] reports
/// [`LmEvent::RequestTimedOut`].
#[derive(Debug, Clone)]
struct Outstanding {
    lt_addr: u8,
    pdu: Pdu,
    deadline_slot: Option<u64>,
}

/// The link manager of one device.
///
/// # Examples
///
/// Driving a sniff negotiation between two managers directly:
///
/// ```
/// use btsim_baseband::SniffParams;
/// use btsim_lmp::{LinkManager, LmRole};
///
/// let mut master = LinkManager::new(LmRole::Master);
/// let mut slave = LinkManager::new(LmRole::Slave);
/// let outs = master.request_sniff(1, SniffParams::default(), 100);
/// assert!(!outs.is_empty()); // carries the LMP_sniff_req PDU
/// let _ = slave; // delivery is exercised in the crate tests
/// ```
#[derive(Debug, Clone)]
pub struct LinkManager {
    role: LmRole,
    pending: Vec<PendingMode>,
    /// Requests we sent and await a response for.
    outstanding: VecDeque<Outstanding>,
    setup_done: Vec<u8>,
    /// Response deadline for request/response transactions, in slots.
    /// A request unanswered this long after it was sent resolves to
    /// [`LmEvent::RequestTimedOut`] — the only way a transaction with a
    /// crashed peer ever terminates. `LMP_set_AFH` keeps its tighter
    /// deadline (the switch instant).
    response_timeout_slots: u64,
}

/// Slots between the agreed instant and "now" when scheduling a mode
/// change, giving the acceptance PDU time to be delivered and ACKed.
const MODE_CHANGE_LEAD_SLOTS: u64 = 12;

/// Default LMP response timeout: the spec's 30 s LMP response timer,
/// expressed in 625 µs slots.
const RESPONSE_TIMEOUT_SLOTS: u64 = 48_000;

impl LinkManager {
    /// Creates a manager for one side of a piconet.
    pub fn new(role: LmRole) -> Self {
        Self {
            role,
            pending: Vec::new(),
            outstanding: VecDeque::new(),
            setup_done: Vec::new(),
            response_timeout_slots: RESPONSE_TIMEOUT_SLOTS,
        }
    }

    /// The configured role.
    pub fn role(&self) -> LmRole {
        self.role
    }

    /// Overrides the LMP response timeout (slots). `0` keeps requests
    /// pending forever — only useful in tests.
    pub fn set_response_timeout_slots(&mut self, slots: u64) {
        self.response_timeout_slots = slots;
    }

    fn response_deadline(&self, now_slot: u64) -> Option<u64> {
        (self.response_timeout_slots > 0).then(|| now_slot + self.response_timeout_slots)
    }

    fn tid(&self) -> bool {
        // Transaction-initiator bit: 0 when the master started it.
        self.role == LmRole::Slave
    }

    fn send(&self, lt_addr: u8, pdu: &Pdu) -> LmOutput {
        LmOutput::Command(LcCommand::Lmp {
            lt_addr,
            data: pdu.encode(self.tid()),
        })
    }

    /// Starts connection setup (host_connection_req → setup_complete).
    pub fn start_setup(&mut self, lt_addr: u8, now_slot: u64) -> Vec<LmOutput> {
        let pdu = Pdu::HostConnectionReq;
        self.outstanding.push_back(Outstanding {
            lt_addr,
            pdu: pdu.clone(),
            deadline_slot: self.response_deadline(now_slot),
        });
        vec![self.send(lt_addr, &pdu)]
    }

    /// Requests sniff mode on `lt_addr` starting near `now_slot`.
    pub fn request_sniff(
        &mut self,
        lt_addr: u8,
        params: SniffParams,
        now_slot: u64,
    ) -> Vec<LmOutput> {
        let pdu = Pdu::SniffReq {
            d_sniff: params.d_sniff as u16,
            t_sniff: params.t_sniff as u16,
            attempt: params.n_attempt as u16,
            timeout: params.n_timeout as u16,
        };
        self.outstanding.push_back(Outstanding {
            lt_addr,
            pdu: pdu.clone(),
            deadline_slot: self.response_deadline(now_slot),
        });
        self.pending.push(PendingMode {
            at_slot: now_slot + MODE_CHANGE_LEAD_SLOTS,
            command: LcCommand::Sniff { lt_addr, params },
            of: Opcode::SniffReq,
            lt_addr,
        });
        vec![self.send(lt_addr, &pdu)]
    }

    /// Requests leaving sniff mode.
    pub fn request_unsniff(&mut self, lt_addr: u8, now_slot: u64) -> Vec<LmOutput> {
        let pdu = Pdu::UnsniffReq;
        self.outstanding.push_back(Outstanding {
            lt_addr,
            pdu: pdu.clone(),
            deadline_slot: self.response_deadline(now_slot),
        });
        self.pending.push(PendingMode {
            at_slot: now_slot + MODE_CHANGE_LEAD_SLOTS,
            command: LcCommand::Unsniff { lt_addr },
            of: Opcode::UnsniffReq,
            lt_addr,
        });
        vec![self.send(lt_addr, &pdu)]
    }

    /// Requests hold mode for `hold_slots`, starting at an agreed instant.
    pub fn request_hold(&mut self, lt_addr: u8, hold_slots: u32, now_slot: u64) -> Vec<LmOutput> {
        let instant = now_slot + MODE_CHANGE_LEAD_SLOTS;
        let pdu = Pdu::HoldReq {
            hold_time: hold_slots.min(u16::MAX as u32) as u16,
            hold_instant: instant as u32,
        };
        self.outstanding.push_back(Outstanding {
            lt_addr,
            pdu: pdu.clone(),
            deadline_slot: self.response_deadline(now_slot),
        });
        self.pending.push(PendingMode {
            at_slot: instant,
            command: LcCommand::Hold {
                lt_addr,
                hold_slots,
            },
            of: Opcode::HoldReq,
            lt_addr,
        });
        vec![self.send(lt_addr, &pdu)]
    }

    /// Requests park mode.
    pub fn request_park(
        &mut self,
        lt_addr: u8,
        beacon_interval: u32,
        now_slot: u64,
    ) -> Vec<LmOutput> {
        let pdu = Pdu::ParkReq {
            beacon_interval: beacon_interval.min(u16::MAX as u32) as u16,
        };
        self.outstanding.push_back(Outstanding {
            lt_addr,
            pdu: pdu.clone(),
            deadline_slot: self.response_deadline(now_slot),
        });
        self.pending.push(PendingMode {
            at_slot: now_slot + MODE_CHANGE_LEAD_SLOTS,
            command: LcCommand::Park {
                lt_addr,
                beacon_interval,
            },
            of: Opcode::ParkReq,
            lt_addr,
        });
        vec![self.send(lt_addr, &pdu)]
    }

    /// Requests an SCO voice link.
    pub fn request_sco(&mut self, lt_addr: u8, params: ScoParams, now_slot: u64) -> Vec<LmOutput> {
        let hv_type = match params.ptype {
            PacketType::Hv1 => 1,
            PacketType::Hv2 => 2,
            _ => 3,
        };
        let pdu = Pdu::ScoLinkReq {
            t_sco: params.t_sco as u16,
            d_sco: params.d_sco as u16,
            hv_type,
        };
        self.outstanding.push_back(Outstanding {
            lt_addr,
            pdu: pdu.clone(),
            deadline_slot: self.response_deadline(now_slot),
        });
        self.pending.push(PendingMode {
            at_slot: now_slot + MODE_CHANGE_LEAD_SLOTS,
            command: LcCommand::ScoSetup { lt_addr, params },
            of: Opcode::ScoLinkReq,
            lt_addr,
        });
        vec![self.send(lt_addr, &pdu)]
    }

    /// Announces an AFH channel-map switch on `lt_addr` (master side,
    /// `LMP_set_AFH`): the new map takes effect on both ends at an
    /// even slot `MODE_CHANGE_LEAD_SLOTS` past `now_slot`. The local
    /// switch is scheduled immediately — the baseband holds it until
    /// the instant — so master and slave hop in lockstep through the
    /// change; the request carries a response deadline at the instant
    /// ([`LmEvent::RequestTimedOut`] if the acceptance never arrives,
    /// [`LmEvent::Rejected`] plus a cancelled switch if the slave
    /// refuses).
    pub fn request_set_afh(
        &mut self,
        lt_addr: u8,
        map: ChannelMap,
        now_slot: u64,
    ) -> Vec<LmOutput> {
        // An even instant: switches land on master-to-slave slot
        // boundaries, never between a transmission and its response.
        let instant = (now_slot + MODE_CHANGE_LEAD_SLOTS).next_multiple_of(2);
        let pdu = Pdu::SetAfh {
            instant: instant as u32,
            enabled: true,
            map: map.clone(),
        };
        self.outstanding.push_back(Outstanding {
            lt_addr,
            pdu: pdu.clone(),
            deadline_slot: Some(instant),
        });
        vec![
            self.send(lt_addr, &pdu),
            LmOutput::Command(LcCommand::SetAfhAt {
                map,
                at_slot: instant,
            }),
        ]
    }

    /// Reports this device's channel classification to the peer (slave
    /// side, `LMP_channel_classification`): `map` marks the channels the
    /// local assessment considers usable. Unacknowledged — the master
    /// answers, if at all, with a new `LMP_set_AFH`.
    pub fn send_channel_classification(&mut self, lt_addr: u8, map: ChannelMap) -> Vec<LmOutput> {
        vec![self.send(lt_addr, &Pdu::ChannelClassification { map })]
    }

    /// Requests detach: the PDU goes out first; the local teardown is
    /// scheduled a few slots later so the notification can reach the peer
    /// before the link (and its transmit queue) disappears.
    pub fn request_detach(&mut self, lt_addr: u8, now_slot: u64) -> Vec<LmOutput> {
        // 0x13: "remote user terminated connection".
        self.request_detach_with_reason(lt_addr, 0x13, now_slot)
    }

    /// [`LinkManager::request_detach`] with an explicit `LMP_detach`
    /// error code, so the peer's host learns *why* (0x08 = connection
    /// timeout, 0x13 = user requested, ...).
    pub fn request_detach_with_reason(
        &mut self,
        lt_addr: u8,
        reason: u8,
        now_slot: u64,
    ) -> Vec<LmOutput> {
        self.pending.push(PendingMode {
            at_slot: now_slot + MODE_CHANGE_LEAD_SLOTS,
            command: LcCommand::Detach { lt_addr },
            of: Opcode::Detach,
            lt_addr,
        });
        vec![self.send(lt_addr, &Pdu::Detach { reason })]
    }

    /// Negotiates the link supervision timeout (`LMP_supervision_timeout`,
    /// master side): the PDU announces `timeout_slots` to the slave, which
    /// applies it on reception; the local controller switches at the same
    /// lead-time instant as other mode changes. A value of `0` disables
    /// supervision on the link.
    pub fn request_supervision_timeout(
        &mut self,
        lt_addr: u8,
        timeout_slots: u16,
        now_slot: u64,
    ) -> Vec<LmOutput> {
        let pdu = Pdu::SupervisionTimeout { timeout_slots };
        self.outstanding.push_back(Outstanding {
            lt_addr,
            pdu: pdu.clone(),
            deadline_slot: self.response_deadline(now_slot),
        });
        self.pending.push(PendingMode {
            at_slot: now_slot + MODE_CHANGE_LEAD_SLOTS,
            command: LcCommand::SetSupervisionTimeout {
                timeout_slots: timeout_slots as u32,
            },
            of: Opcode::SupervisionTimeout,
            lt_addr,
        });
        vec![self.send(lt_addr, &pdu)]
    }

    /// The earliest slot at which a pending mode change falls due or an
    /// outstanding request's response deadline expires, if any — the
    /// manager's wakeup hint. [`LinkManager::poll`] calls before this
    /// slot are guaranteed no-ops, so an event-driven engine may skip
    /// them; it must poll again no later than this slot.
    pub fn next_pending_slot(&self) -> Option<u64> {
        self.pending
            .iter()
            .map(|p| p.at_slot)
            .chain(self.outstanding.iter().filter_map(|o| o.deadline_slot))
            .min()
    }

    /// Applies mode changes whose agreed instant has been reached and
    /// expires outstanding requests whose response deadline passed.
    pub fn poll(&mut self, now_slot: u64) -> Vec<LmOutput> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.pending.len() {
            if now_slot >= self.pending[i].at_slot {
                let p = self.pending.remove(i);
                out.push(LmOutput::Command(p.command));
                out.push(LmOutput::Event(LmEvent::ModeApplied {
                    lt_addr: p.lt_addr,
                    of: p.of,
                }));
            } else {
                i += 1;
            }
        }
        let mut k = 0;
        while k < self.outstanding.len() {
            if self.outstanding[k]
                .deadline_slot
                .is_some_and(|d| now_slot >= d)
            {
                let o = self.outstanding.remove(k).expect("index checked");
                out.push(LmOutput::Event(LmEvent::RequestTimedOut {
                    lt_addr: o.lt_addr,
                    of: o.pdu.opcode(),
                }));
            } else {
                k += 1;
            }
        }
        out
    }

    /// Feeds a link-controller event (LMP receptions drive transactions).
    pub fn on_lc_event(&mut self, ev: &LcEvent, now_slot: u64) -> Vec<LmOutput> {
        match ev {
            LcEvent::AclReceived {
                lt_addr,
                llid: Llid::Lmp,
                data,
            } => match Pdu::decode(data) {
                Some((pdu, _tid)) => self.on_pdu(*lt_addr, pdu, now_slot),
                None => Vec::new(),
            },
            _ => Vec::new(),
        }
    }

    fn on_pdu(&mut self, lt_addr: u8, pdu: Pdu, now_slot: u64) -> Vec<LmOutput> {
        let mut out = Vec::new();
        match pdu {
            Pdu::HostConnectionReq => {
                out.push(self.send(
                    lt_addr,
                    &Pdu::Accepted {
                        of: Opcode::HostConnectionReq,
                    },
                ));
                out.push(self.send(lt_addr, &Pdu::SetupComplete));
            }
            Pdu::SetupComplete => {
                if !self.setup_done.contains(&lt_addr) {
                    self.setup_done.push(lt_addr);
                    out.push(LmOutput::Event(LmEvent::SetupComplete { lt_addr }));
                }
            }
            Pdu::Accepted { of } => {
                let before = self.outstanding.len();
                self.outstanding.retain(|o| {
                    if o.lt_addr == lt_addr && o.pdu.opcode() == of {
                        if of == Opcode::HostConnectionReq {
                            // Our connection request was accepted; finish.
                            out.push(LmOutput::Command(LcCommand::Lmp {
                                lt_addr,
                                data: Pdu::SetupComplete.encode(false),
                            }));
                        }
                        false
                    } else {
                        true
                    }
                });
                if of == Opcode::SetAfh && self.outstanding.len() != before {
                    out.push(LmOutput::Event(LmEvent::AfhAccepted { lt_addr }));
                }
            }
            Pdu::NotAccepted { of, reason } => {
                self.outstanding
                    .retain(|o| !(o.lt_addr == lt_addr && o.pdu.opcode() == of));
                self.pending
                    .retain(|p| !(p.lt_addr == lt_addr && p.of == of));
                if of == Opcode::SetAfh {
                    // The slave refused, so it never scheduled the
                    // switch; drop ours before the instant arrives.
                    // AFH is piconet-wide while this cancel is
                    // controller-wide: on a multi-slave piconet a
                    // single refusal reverts the master's switch, and
                    // the host must re-announce (a fresh
                    // `request_set_afh`) to any slave that had already
                    // accepted, or that link hops away at the old
                    // instant. The in-tree slave manager always
                    // accepts `LMP_set_AFH` (as the spec mandates), so
                    // this path only fires against nonstandard peers.
                    out.push(LmOutput::Command(LcCommand::CancelAfhSwitch));
                }
                out.push(LmOutput::Event(LmEvent::Rejected { of, reason }));
            }
            Pdu::SniffReq {
                d_sniff,
                t_sniff,
                attempt,
                timeout,
            } => {
                out.push(self.send(
                    lt_addr,
                    &Pdu::Accepted {
                        of: Opcode::SniffReq,
                    },
                ));
                self.pending.push(PendingMode {
                    at_slot: now_slot + MODE_CHANGE_LEAD_SLOTS,
                    command: LcCommand::Sniff {
                        lt_addr,
                        params: SniffParams {
                            t_sniff: t_sniff as u32,
                            n_attempt: attempt as u32,
                            d_sniff: d_sniff as u32,
                            n_timeout: timeout as u32,
                        },
                    },
                    of: Opcode::SniffReq,
                    lt_addr,
                });
            }
            Pdu::UnsniffReq => {
                out.push(self.send(
                    lt_addr,
                    &Pdu::Accepted {
                        of: Opcode::UnsniffReq,
                    },
                ));
                self.pending.push(PendingMode {
                    at_slot: now_slot,
                    command: LcCommand::Unsniff { lt_addr },
                    of: Opcode::UnsniffReq,
                    lt_addr,
                });
            }
            Pdu::HoldReq {
                hold_time,
                hold_instant,
            } => {
                out.push(self.send(
                    lt_addr,
                    &Pdu::Accepted {
                        of: Opcode::HoldReq,
                    },
                ));
                self.pending.push(PendingMode {
                    at_slot: hold_instant as u64,
                    command: LcCommand::Hold {
                        lt_addr,
                        hold_slots: hold_time as u32,
                    },
                    of: Opcode::HoldReq,
                    lt_addr,
                });
            }
            Pdu::ParkReq { beacon_interval } => {
                out.push(self.send(
                    lt_addr,
                    &Pdu::Accepted {
                        of: Opcode::ParkReq,
                    },
                ));
                self.pending.push(PendingMode {
                    at_slot: now_slot + MODE_CHANGE_LEAD_SLOTS,
                    command: LcCommand::Park {
                        lt_addr,
                        beacon_interval: beacon_interval as u32,
                    },
                    of: Opcode::ParkReq,
                    lt_addr,
                });
            }
            Pdu::ScoLinkReq {
                t_sco,
                d_sco,
                hv_type,
            } => {
                out.push(self.send(
                    lt_addr,
                    &Pdu::Accepted {
                        of: Opcode::ScoLinkReq,
                    },
                ));
                let ptype = match hv_type {
                    1 => PacketType::Hv1,
                    2 => PacketType::Hv2,
                    _ => PacketType::Hv3,
                };
                self.pending.push(PendingMode {
                    at_slot: now_slot + MODE_CHANGE_LEAD_SLOTS,
                    command: LcCommand::ScoSetup {
                        lt_addr,
                        params: ScoParams {
                            t_sco: t_sco as u32,
                            d_sco: d_sco as u32,
                            ptype,
                        },
                    },
                    of: Opcode::ScoLinkReq,
                    lt_addr,
                });
            }
            Pdu::SetAfh {
                instant,
                enabled,
                map,
            } => {
                out.push(self.send(lt_addr, &Pdu::Accepted { of: Opcode::SetAfh }));
                // `enabled = false` decodes to the all-channels map:
                // hopping reverts to the full band at the instant.
                let _ = enabled;
                out.push(LmOutput::Command(LcCommand::SetAfhAt {
                    map,
                    at_slot: instant as u64,
                }));
                out.push(LmOutput::Event(LmEvent::ModeApplied {
                    lt_addr,
                    of: Opcode::SetAfh,
                }));
            }
            Pdu::ChannelClassification { map } => {
                out.push(LmOutput::Event(LmEvent::ChannelClassification {
                    lt_addr,
                    map,
                }));
            }
            Pdu::SupervisionTimeout { timeout_slots } => {
                out.push(self.send(
                    lt_addr,
                    &Pdu::Accepted {
                        of: Opcode::SupervisionTimeout,
                    },
                ));
                out.push(LmOutput::Command(LcCommand::SetSupervisionTimeout {
                    timeout_slots: timeout_slots as u32,
                }));
                out.push(LmOutput::Event(LmEvent::ModeApplied {
                    lt_addr,
                    of: Opcode::SupervisionTimeout,
                }));
            }
            Pdu::Detach { reason } => {
                out.push(LmOutput::Command(LcCommand::Detach { lt_addr }));
                out.push(LmOutput::Event(LmEvent::PeerDetached { lt_addr, reason }));
            }
        }
        out
    }
}

use btsim_kernel::{snap_enum, snap_struct, Snap, SnapReader, SnapWriter, SnapshotError};

snap_enum! {
    LmRole {
        0 => Master,
        1 => Slave,
    } else "unknown LM role tag"
}

impl Snap for Opcode {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u8(*self as u8);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let v = r.take_u8()?;
        Opcode::from_u8(v).ok_or_else(|| r.malformed("unknown LMP opcode"))
    }
}

impl Snap for Pdu {
    /// PDUs roundtrip through their own LMP wire encoding (the
    /// transaction-initiator bit is not part of the PDU value and is
    /// pinned to zero here).
    fn snap(&self, w: &mut SnapWriter) {
        w.put_bytes(&self.encode(false));
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let bytes = r.take_bytes()?;
        match Pdu::decode(&bytes) {
            Some((pdu, _tid)) => Ok(pdu),
            None => Err(r.malformed("undecodable LMP PDU")),
        }
    }
}

snap_enum! {
    LmEvent {
        0 => SetupComplete { lt_addr },
        1 => Rejected { of, reason },
        2 => ModeApplied { lt_addr, of },
        3 => PeerDetached { lt_addr, reason },
        4 => AfhAccepted { lt_addr },
        5 => ChannelClassification { lt_addr, map },
        6 => RequestTimedOut { lt_addr, of },
    } else "unknown LM event tag"
}

snap_struct! { PendingMode { at_slot, command, of, lt_addr } }

snap_struct! { Outstanding { lt_addr, pdu, deadline_slot } }

snap_struct! {
    LinkManager { role, pending, outstanding, setup_done, response_timeout_slots }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Routes LMP commands of `outs` into the peer manager, returning the
    /// peer's outputs (simulating a perfect link).
    fn deliver(peer: &mut LinkManager, outs: &[LmOutput], now_slot: u64) -> Vec<LmOutput> {
        let mut result = Vec::new();
        for o in outs {
            if let LmOutput::Command(LcCommand::Lmp { lt_addr, data }) = o {
                let ev = LcEvent::AclReceived {
                    lt_addr: *lt_addr,
                    llid: Llid::Lmp,
                    data: data.clone(),
                };
                result.extend(peer.on_lc_event(&ev, now_slot));
            }
        }
        result
    }

    fn commands(outs: &[LmOutput]) -> Vec<&LcCommand> {
        outs.iter()
            .filter_map(|o| match o {
                LmOutput::Command(c) => Some(c),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn connection_setup_handshake() {
        let mut master = LinkManager::new(LmRole::Master);
        let mut slave = LinkManager::new(LmRole::Slave);
        let m1 = master.start_setup(1, 0);
        let s1 = deliver(&mut slave, &m1, 0);
        // Slave answers accepted + setup_complete.
        assert_eq!(commands(&s1).len(), 2);
        let m2 = deliver(&mut master, &s1, 1);
        // Master sees setup_complete and sends its own.
        assert!(m2
            .iter()
            .any(|o| matches!(o, LmOutput::Event(LmEvent::SetupComplete { lt_addr: 1 }))));
        let s2 = deliver(&mut slave, &m2, 2);
        assert!(s2
            .iter()
            .any(|o| matches!(o, LmOutput::Event(LmEvent::SetupComplete { lt_addr: 1 }))));
    }

    #[test]
    fn sniff_negotiation_applies_on_both_sides_at_same_slot() {
        let mut master = LinkManager::new(LmRole::Master);
        let mut slave = LinkManager::new(LmRole::Slave);
        let m1 = master.request_sniff(2, SniffParams::default(), 100);
        let s1 = deliver(&mut slave, &m1, 101);
        let _ = deliver(&mut master, &s1, 102);
        // Neither applies before the agreed instant.
        assert!(master.poll(105).is_empty());
        assert!(slave.poll(105).is_empty());
        // Both apply after it.
        let mo = master.poll(120);
        let so = slave.poll(120);
        assert!(commands(&mo)
            .iter()
            .any(|c| matches!(c, LcCommand::Sniff { lt_addr: 2, .. })));
        assert!(commands(&so)
            .iter()
            .any(|c| matches!(c, LcCommand::Sniff { lt_addr: 2, .. })));
    }

    #[test]
    fn hold_negotiation_uses_requested_instant() {
        let mut master = LinkManager::new(LmRole::Master);
        let mut slave = LinkManager::new(LmRole::Slave);
        let m1 = master.request_hold(1, 400, 1000);
        let _ = deliver(&mut slave, &m1, 1001);
        let so = slave.poll(1000 + MODE_CHANGE_LEAD_SLOTS);
        assert!(commands(&so).iter().any(|c| matches!(
            c,
            LcCommand::Hold {
                lt_addr: 1,
                hold_slots: 400
            }
        )));
        let mo = master.poll(1000 + MODE_CHANGE_LEAD_SLOTS);
        assert!(commands(&mo).iter().any(|c| matches!(
            c,
            LcCommand::Hold {
                lt_addr: 1,
                hold_slots: 400
            }
        )));
    }

    #[test]
    fn next_pending_slot_tracks_the_earliest_instant() {
        let mut master = LinkManager::new(LmRole::Master);
        assert_eq!(master.next_pending_slot(), None);
        master.request_hold(1, 400, 1000);
        master.request_sniff(2, SniffParams::default(), 500);
        assert_eq!(
            master.next_pending_slot(),
            Some(500 + MODE_CHANGE_LEAD_SLOTS)
        );
        // Polls before the hint are no-ops; at the hint they drain.
        assert!(master.poll(500 + MODE_CHANGE_LEAD_SLOTS - 1).is_empty());
        assert!(!master.poll(500 + MODE_CHANGE_LEAD_SLOTS).is_empty());
        assert_eq!(
            master.next_pending_slot(),
            Some(1000 + MODE_CHANGE_LEAD_SLOTS)
        );
        assert!(!master.poll(u64::MAX).is_empty());
        assert_eq!(master.next_pending_slot(), None);
    }

    #[test]
    fn rejection_cancels_pending_change() {
        let mut master = LinkManager::new(LmRole::Master);
        let m1 = master.request_sniff(1, SniffParams::default(), 0);
        assert_eq!(m1.len(), 1);
        // Peer rejects.
        let reject = Pdu::NotAccepted {
            of: Opcode::SniffReq,
            reason: 0x0C,
        }
        .encode(true);
        let ev = LcEvent::AclReceived {
            lt_addr: 1,
            llid: Llid::Lmp,
            data: reject,
        };
        let outs = master.on_lc_event(&ev, 1);
        assert!(outs
            .iter()
            .any(|o| matches!(o, LmOutput::Event(LmEvent::Rejected { .. }))));
        assert!(master.poll(1000).is_empty(), "pending change must be gone");
    }

    #[test]
    fn detach_notifies_peer() {
        let mut master = LinkManager::new(LmRole::Master);
        let mut slave = LinkManager::new(LmRole::Slave);
        let m1 = master.request_detach(3, 0);
        // The PDU is queued immediately; the local teardown is deferred
        // so the notification can leave first.
        assert!(!commands(&m1)
            .iter()
            .any(|c| matches!(c, LcCommand::Detach { .. })));
        let deferred = master.poll(MODE_CHANGE_LEAD_SLOTS);
        assert!(commands(&deferred)
            .iter()
            .any(|c| matches!(c, LcCommand::Detach { lt_addr: 3 })));
        let s1 = deliver(&mut slave, &m1, 0);
        assert!(s1.iter().any(|o| matches!(
            o,
            LmOutput::Event(LmEvent::PeerDetached {
                lt_addr: 3,
                reason: 0x13
            })
        )));
        assert!(commands(&s1)
            .iter()
            .any(|c| matches!(c, LcCommand::Detach { lt_addr: 3 })));
    }

    #[test]
    fn supervision_timeout_negotiation_applies_on_both_sides() {
        let mut master = LinkManager::new(LmRole::Master);
        let mut slave = LinkManager::new(LmRole::Slave);
        let m1 = master.request_supervision_timeout(1, 16_000, 100);
        // The slave applies the announced value on reception and accepts.
        let s1 = deliver(&mut slave, &m1, 101);
        assert!(commands(&s1).iter().any(|c| matches!(
            c,
            LcCommand::SetSupervisionTimeout {
                timeout_slots: 16_000
            }
        )));
        assert!(s1.iter().any(|o| matches!(
            o,
            LmOutput::Event(LmEvent::ModeApplied {
                lt_addr: 1,
                of: Opcode::SupervisionTimeout
            })
        )));
        // The acceptance clears the master's outstanding request ...
        let _ = deliver(&mut master, &s1, 102);
        // ... and the master applies its own copy at the agreed lead.
        let mo = master.poll(100 + MODE_CHANGE_LEAD_SLOTS);
        assert!(commands(&mo).iter().any(|c| matches!(
            c,
            LcCommand::SetSupervisionTimeout {
                timeout_slots: 16_000
            }
        )));
        assert_eq!(master.next_pending_slot(), None);
        assert!(master.poll(u64::MAX).is_empty(), "nothing left to expire");
    }

    #[test]
    fn unanswered_request_times_out_exactly_at_the_deadline() {
        let mut master = LinkManager::new(LmRole::Master);
        master.set_response_timeout_slots(200);
        let _ = master.start_setup(1, 40);
        // The deadline is the wakeup hint; the tick before is a no-op.
        assert_eq!(master.next_pending_slot(), Some(240));
        assert!(master.poll(239).is_empty());
        let outs = master.poll(240);
        assert!(outs.iter().any(|o| matches!(
            o,
            LmOutput::Event(LmEvent::RequestTimedOut {
                lt_addr: 1,
                of: Opcode::HostConnectionReq
            })
        )));
        assert!(master.poll(u64::MAX).is_empty(), "expires once only");
    }

    #[test]
    fn zero_response_timeout_keeps_requests_pending_forever() {
        let mut master = LinkManager::new(LmRole::Master);
        master.set_response_timeout_slots(0);
        let _ = master.start_setup(1, 40);
        assert_eq!(master.next_pending_slot(), None);
        assert!(master.poll(u64::MAX).is_empty());
    }

    #[test]
    fn detach_reason_propagates_to_the_peer_host() {
        let mut master = LinkManager::new(LmRole::Master);
        let mut slave = LinkManager::new(LmRole::Slave);
        // 0x08: connection timeout — the reason supervision teardown uses.
        let m1 = master.request_detach_with_reason(2, 0x08, 10);
        let s1 = deliver(&mut slave, &m1, 11);
        assert!(s1.iter().any(|o| matches!(
            o,
            LmOutput::Event(LmEvent::PeerDetached {
                lt_addr: 2,
                reason: 0x08
            })
        )));
    }

    #[test]
    fn park_negotiation() {
        let mut master = LinkManager::new(LmRole::Master);
        let mut slave = LinkManager::new(LmRole::Slave);
        let m1 = master.request_park(1, 200, 50);
        let _ = deliver(&mut slave, &m1, 51);
        let so = slave.poll(100);
        assert!(commands(&so).iter().any(|c| matches!(
            c,
            LcCommand::Park {
                lt_addr: 1,
                beacon_interval: 200
            }
        )));
    }

    #[test]
    fn sco_negotiation_installs_the_link_on_both_sides() {
        let mut master = LinkManager::new(LmRole::Master);
        let mut slave = LinkManager::new(LmRole::Slave);
        let params = ScoParams::for_type(PacketType::Hv3, 2);
        let m1 = master.request_sco(1, params, 10);
        let _ = deliver(&mut slave, &m1, 11);
        let mo = master.poll(10 + MODE_CHANGE_LEAD_SLOTS);
        let so = slave.poll(11 + MODE_CHANGE_LEAD_SLOTS);
        for outs in [mo, so] {
            assert!(commands(&outs)
                .iter()
                .any(|c| matches!(c, LcCommand::ScoSetup { lt_addr: 1, .. })));
        }
    }

    #[test]
    fn afh_negotiation_schedules_the_same_instant_on_both_sides() {
        use btsim_baseband::hop::ChannelMap;
        let mut master = LinkManager::new(LmRole::Master);
        let mut slave = LinkManager::new(LmRole::Slave);
        let map = ChannelMap::blocking(29..=50);
        let m1 = master.request_set_afh(1, map.clone(), 101);
        // The master schedules its own switch immediately at an even
        // instant at least the lead past "now".
        let m_switch = commands(&m1)
            .into_iter()
            .find_map(|c| match c {
                LcCommand::SetAfhAt { map, at_slot } => Some((map.clone(), *at_slot)),
                _ => None,
            })
            .expect("master schedules its switch");
        assert_eq!(m_switch.0, map);
        assert!(m_switch.1 >= 101 + MODE_CHANGE_LEAD_SLOTS);
        assert!(m_switch.1.is_multiple_of(2), "switch lands on a slot pair");
        // The slave accepts and schedules the identical switch.
        let s1 = deliver(&mut slave, &m1, 103);
        let s_switch = commands(&s1)
            .into_iter()
            .find_map(|c| match c {
                LcCommand::SetAfhAt { map, at_slot } => Some((map.clone(), *at_slot)),
                _ => None,
            })
            .expect("slave schedules the announced switch");
        assert_eq!(s_switch, m_switch, "both ends switch at the same slot");
        assert!(s1.iter().any(|o| matches!(
            o,
            LmOutput::Event(LmEvent::ModeApplied {
                lt_addr: 1,
                of: Opcode::SetAfh
            })
        )));
        // The acceptance clears the outstanding request on the master.
        let m2 = deliver(&mut master, &s1, 104);
        assert!(m2
            .iter()
            .any(|o| matches!(o, LmOutput::Event(LmEvent::AfhAccepted { lt_addr: 1 }))));
        assert_eq!(master.next_pending_slot(), None);
        assert!(master.poll(m_switch.1 + 10).is_empty(), "no timeout fires");
    }

    #[test]
    fn afh_rejection_cancels_the_masters_switch() {
        use btsim_baseband::hop::ChannelMap;
        let mut master = LinkManager::new(LmRole::Master);
        let _ = master.request_set_afh(1, ChannelMap::blocking(0..=21), 50);
        let reject = Pdu::NotAccepted {
            of: Opcode::SetAfh,
            reason: 0x0C,
        }
        .encode(true);
        let ev = LcEvent::AclReceived {
            lt_addr: 1,
            llid: Llid::Lmp,
            data: reject,
        };
        let outs = master.on_lc_event(&ev, 54);
        assert!(commands(&outs)
            .iter()
            .any(|c| matches!(c, LcCommand::CancelAfhSwitch)));
        assert!(outs.iter().any(|o| matches!(
            o,
            LmOutput::Event(LmEvent::Rejected {
                of: Opcode::SetAfh,
                ..
            })
        )));
        // Nothing left to time out.
        assert_eq!(master.next_pending_slot(), None);
    }

    #[test]
    fn afh_timeout_reports_but_keeps_the_switch() {
        use btsim_baseband::hop::ChannelMap;
        let mut master = LinkManager::new(LmRole::Master);
        let m1 = master.request_set_afh(1, ChannelMap::blocking(29..=50), 200);
        let instant = commands(&m1)
            .into_iter()
            .find_map(|c| match c {
                LcCommand::SetAfhAt { at_slot, .. } => Some(*at_slot),
                _ => None,
            })
            .unwrap();
        // The deadline is the manager's wakeup hint; polls before it
        // are no-ops.
        assert_eq!(master.next_pending_slot(), Some(instant));
        assert!(master.poll(instant - 1).is_empty());
        let outs = master.poll(instant);
        assert!(outs.iter().any(|o| matches!(
            o,
            LmOutput::Event(LmEvent::RequestTimedOut {
                lt_addr: 1,
                of: Opcode::SetAfh
            })
        )));
        // The switch itself is NOT cancelled (the slave may have
        // scheduled it; see the LmEvent::RequestTimedOut docs).
        assert!(!commands(&outs)
            .iter()
            .any(|c| matches!(c, LcCommand::CancelAfhSwitch)));
        assert_eq!(master.next_pending_slot(), None);
        assert!(master.poll(instant + 100).is_empty(), "expired once only");
    }

    #[test]
    fn channel_classification_reaches_the_master_host() {
        use btsim_baseband::hop::ChannelMap;
        let mut master = LinkManager::new(LmRole::Master);
        let mut slave = LinkManager::new(LmRole::Slave);
        let map = ChannelMap::blocking([3, 4, 5]);
        let s1 = slave.send_channel_classification(2, map.clone());
        let m1 = deliver(&mut master, &s1, 10);
        assert!(m1.iter().any(|o| matches!(
            o,
            LmOutput::Event(LmEvent::ChannelClassification { lt_addr: 2, map: m }) if *m == map
        )));
    }

    #[test]
    fn manager_snapshot_roundtrips_and_resumes_identically() {
        let mut lm = LinkManager::new(LmRole::Master);
        lm.request_sniff(1, SniffParams::default(), 100);
        lm.request_set_afh(2, ChannelMap::blocking(29..=50), 200);
        lm.start_setup(3, 50);
        let mut w = SnapWriter::new();
        lm.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut back = LinkManager::unsnap(&mut r).expect("roundtrip");
        r.finish().expect("no trailing bytes");
        assert_eq!(back.role(), lm.role());
        assert_eq!(back.next_pending_slot(), lm.next_pending_slot());
        // The restored manager drains pending work exactly as the
        // original does.
        assert_eq!(back.poll(u64::MAX), lm.poll(u64::MAX));
        // Truncations are rejected, never a panic.
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            let out = LinkManager::unsnap(&mut r).and_then(|_| r.finish());
            assert!(out.is_err(), "cut at {cut} must be rejected");
        }
    }

    #[test]
    fn non_lmp_events_are_ignored() {
        let mut lm = LinkManager::new(LmRole::Master);
        let ev = LcEvent::AclReceived {
            lt_addr: 1,
            llid: Llid::Start,
            data: vec![1, 2, 3],
        };
        assert!(lm.on_lc_event(&ev, 0).is_empty());
    }
}
