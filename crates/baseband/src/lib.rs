//! # btsim-baseband
//!
//! The Bluetooth Baseband layer as modelled in the DATE'05 paper (its
//! Fig. 3 architecture), built bit-accurately in Rust:
//!
//! * [`BdAddr`] — device addressing (LAP/UAP/NAP);
//! * [`Clock`] / [`ClkVal`] — the 28-bit native clock CLKN and piconet
//!   clock arithmetic (the paper's `CLOCK` module);
//! * [`hop`] — the §2.6 frequency hop selection box (`HOP_FREQ`);
//! * [`packet`] — every packet format of the v1.2 standard with exact
//!   air images (`TRANSMITTER` / `RECEIVER`), and [`AirPacket`], the
//!   packet a transmission carries, whose bits are built only when a
//!   reception needs them;
//! * [`TxBuffer`] / [`RxAssembler`] — link buffering (`BUFFER_TX/RX`);
//! * [`LinkController`] — the link-controller state machine
//!   (`STATE MACHINE`): inquiry, page, their scan/response substates and
//!   the CONNECTION state with active/sniff/hold/park modes.
//!
//! The link controller is sans-IO: it consumes half-slot ticks, decoded
//! receptions and commands, and emits RF actions plus events. The
//! `btsim-core` crate wires it to the channel and the discrete-event
//! kernel.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod buffer;
mod clock;
pub mod hop;
mod lc;
pub mod packet;

pub use address::{BdAddr, DCI_UAP};
pub use buffer::{RxAssembler, TxBuffer};
pub use clock::{ClkVal, Clock, CLK_WRAP};
pub use lc::{
    stat_slot_pair, ChannelAssessment, LcAction, LcCommand, LcConfig, LcEvent, LifePhase,
    LinkController, LinkMode, Role, RxDelivery, ScoParams, SniffParams, StatPairReport,
    StatRespReport, StatSide,
};
pub use packet::{AirPacket, Llid, PacketType};
