//! Transmit/receive buffering between the Link Manager and the baseband —
//! the paper's `BUFFER_TX` / `BUFFER_RX` modules.
//!
//! [`TxBuffer`] queues outbound messages and hands out link-layer
//! fragments sized to the current packet type, marking the first fragment
//! of a message with [`Llid::Start`] and the rest with
//! [`Llid::Continuation`] (LMP PDUs are never fragmented). [`RxAssembler`]
//! reassembles the fragments back into messages.

use std::collections::VecDeque;

use crate::packet::Llid;

/// An outbound message queued for a link.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TxMessage {
    llid: Llid,
    data: Vec<u8>,
    offset: usize,
}

/// Outbound queue with fragmentation.
///
/// # Examples
///
/// ```
/// use btsim_baseband::{Llid, TxBuffer};
///
/// let mut buf = TxBuffer::new();
/// buf.push(Llid::Start, (0..40u8).collect());
/// let (llid, frag) = buf.pop_fragment(27).unwrap();
/// assert_eq!(llid, Llid::Start);
/// assert_eq!(frag.len(), 27);
/// let (llid, frag) = buf.pop_fragment(27).unwrap();
/// assert_eq!(llid, Llid::Continuation);
/// assert_eq!(frag.len(), 13);
/// assert!(buf.pop_fragment(27).is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct TxBuffer {
    queue: VecDeque<TxMessage>,
    queued_bytes: usize,
}

impl TxBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a message. `llid` selects the logical link: user data
    /// ([`Llid::Start`]) is fragmented as needed; LMP PDUs ([`Llid::Lmp`])
    /// must fit a single packet and are never fragmented.
    ///
    /// LMP PDUs take priority over user data (spec: LMP traffic outranks
    /// ACL payload): a PDU is inserted ahead of every user message —
    /// including one mid-fragmentation — behind only earlier LMP PDUs.
    /// Without this, a control PDU queued behind a saturated bulk
    /// transfer — exactly the situation of an AFH map exchange under
    /// interference — would miss its switch instant by the whole
    /// remaining transfer. Interleaving a PDU between two fragments of
    /// a user message is safe: the receive side routes [`Llid::Lmp`]
    /// around the reassembler without disturbing it.
    pub fn push(&mut self, llid: Llid, data: Vec<u8>) {
        self.queued_bytes += data.len();
        let msg = TxMessage {
            llid,
            data,
            offset: 0,
        };
        if llid == Llid::Lmp {
            let idx = self
                .queue
                .iter()
                .position(|m| m.llid != Llid::Lmp)
                .unwrap_or(self.queue.len());
            self.queue.insert(idx, msg);
        } else {
            self.queue.push_back(msg);
        }
    }

    /// True when no data is waiting.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total user bytes still queued (including partially sent messages).
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// Takes the next fragment of at most `max_bytes`.
    ///
    /// Returns the LLID to put in the payload header and the fragment
    /// bytes, or `None` when the buffer is empty. Empty messages produce
    /// one empty [`Llid::Start`] fragment.
    ///
    /// # Panics
    ///
    /// Panics if `max_bytes` is zero while data is pending.
    pub fn pop_fragment(&mut self, max_bytes: usize) -> Option<(Llid, Vec<u8>)> {
        let msg = self.queue.front_mut()?;
        assert!(max_bytes > 0, "cannot fragment into zero-byte packets");
        let first = msg.offset == 0;
        let take = (msg.data.len() - msg.offset).min(max_bytes);
        let frag = msg.data[msg.offset..msg.offset + take].to_vec();
        msg.offset += take;
        let llid = match (msg.llid, first) {
            (Llid::Lmp, _) => Llid::Lmp,
            (_, true) => Llid::Start,
            (_, false) => Llid::Continuation,
        };
        self.queued_bytes -= take;
        if msg.offset >= msg.data.len() {
            self.queue.pop_front();
        }
        Some((llid, frag))
    }

    /// The `(llid, length)` [`TxBuffer::pop_fragment`] would return next,
    /// without consuming anything.
    pub fn peek_fragment(&self, max_bytes: usize) -> Option<(Llid, usize)> {
        let msg = self.queue.front()?;
        let first = msg.offset == 0;
        let take = (msg.data.len() - msg.offset).min(max_bytes);
        let llid = match (msg.llid, first) {
            (Llid::Lmp, _) => Llid::Lmp,
            (_, true) => Llid::Start,
            (_, false) => Llid::Continuation,
        };
        Some((llid, take))
    }

    /// Whether an LMP PDU is queued. PDUs outrank user data, so a pending
    /// PDU always sits at the queue front.
    pub fn has_lmp(&self) -> bool {
        self.queue.front().is_some_and(|m| m.llid == Llid::Lmp)
    }

    /// Empties the buffer (link teardown), returning the count of
    /// *user* bytes dropped: the unsent remainder of every queued
    /// non-LMP message, including one stranded mid-fragmentation. LMP
    /// PDU bytes are control traffic and not counted.
    ///
    /// # Examples
    ///
    /// ```
    /// use btsim_baseband::{Llid, TxBuffer};
    ///
    /// let mut buf = TxBuffer::new();
    /// buf.push(Llid::Start, vec![0; 40]);
    /// buf.pop_fragment(27); // 27 of the 40 user bytes went out
    /// buf.push(Llid::Lmp, vec![0x51]);
    /// assert_eq!(buf.flush(), 13); // stranded remainder; LMP not counted
    /// assert!(buf.is_empty());
    /// ```
    pub fn flush(&mut self) -> usize {
        let user = self
            .queue
            .iter()
            .filter(|m| m.llid != Llid::Lmp)
            .map(|m| m.data.len() - m.offset)
            .sum();
        self.queue.clear();
        self.queued_bytes = 0;
        user
    }
}

/// Reassembles received fragments into messages.
///
/// Fragments arrive deduplicated and in order (the baseband ARQ
/// guarantees this); a [`Llid::Start`] begins a new message and flushes
/// any incomplete predecessor.
#[derive(Debug, Clone, Default)]
pub struct RxAssembler {
    current: Vec<u8>,
    assembling: bool,
    messages: VecDeque<Vec<u8>>,
    lmp: VecDeque<Vec<u8>>,
}

impl RxAssembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one received fragment.
    pub fn push(&mut self, llid: Llid, data: &[u8]) {
        match llid {
            Llid::Lmp => self.lmp.push_back(data.to_vec()),
            Llid::Start => {
                if self.assembling {
                    let done = std::mem::take(&mut self.current);
                    self.messages.push_back(done);
                }
                self.current = data.to_vec();
                self.assembling = true;
            }
            Llid::Continuation => {
                if self.assembling {
                    self.current.extend_from_slice(data);
                }
                // A continuation with no start is dropped (stale fragment).
            }
        }
    }

    /// Flushes the message under assembly (call at end-of-stream).
    pub fn flush(&mut self) {
        if self.assembling {
            let done = std::mem::take(&mut self.current);
            self.messages.push_back(done);
            self.assembling = false;
        }
    }

    /// Takes the next complete user message.
    pub fn pop_message(&mut self) -> Option<Vec<u8>> {
        self.messages.pop_front()
    }

    /// Takes the next LMP PDU.
    pub fn pop_lmp(&mut self) -> Option<Vec<u8>> {
        self.lmp.pop_front()
    }

    /// All user bytes received so far (consumes completed messages).
    pub fn drain_bytes(&mut self) -> Vec<u8> {
        let mut out = Vec::new();
        while let Some(m) = self.pop_message() {
            out.extend_from_slice(&m);
        }
        out
    }
}

btsim_kernel::snap_struct! {
    TxMessage { llid, data, offset }
    check |m| if m.offset > m.data.len() {
        Err("tx fragment offset past message end")
    } else {
        Ok(())
    }
}

// The byte gauge is derived state: recompute it rather than trusting
// (and having to cross-validate) a serialized copy.
btsim_kernel::snap_struct! {
    TxBuffer { queue }
    skip {
        queued_bytes = VecDeque::<TxMessage>::iter(&queue)
            .map(|m| m.data.len() - m.offset)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragments_large_message() {
        let mut buf = TxBuffer::new();
        buf.push(Llid::Start, (0..100u8).collect());
        assert_eq!(buf.queued_bytes(), 100);
        let mut got = Vec::new();
        let mut llids = Vec::new();
        while let Some((llid, frag)) = buf.pop_fragment(27) {
            llids.push(llid);
            got.extend(frag);
        }
        assert_eq!(got, (0..100u8).collect::<Vec<_>>());
        assert_eq!(
            llids,
            vec![
                Llid::Start,
                Llid::Continuation,
                Llid::Continuation,
                Llid::Continuation
            ]
        );
        assert_eq!(buf.queued_bytes(), 0);
    }

    #[test]
    fn small_message_is_single_start_fragment() {
        let mut buf = TxBuffer::new();
        buf.push(Llid::Start, vec![1, 2, 3]);
        assert_eq!(buf.pop_fragment(27), Some((Llid::Start, vec![1, 2, 3])));
        assert!(buf.pop_fragment(27).is_none());
    }

    #[test]
    fn lmp_keeps_its_llid() {
        let mut buf = TxBuffer::new();
        buf.push(Llid::Lmp, vec![0x51, 0x01]);
        assert_eq!(buf.pop_fragment(17), Some((Llid::Lmp, vec![0x51, 0x01])));
    }

    #[test]
    fn messages_queue_in_order() {
        let mut buf = TxBuffer::new();
        buf.push(Llid::Start, vec![1; 5]);
        buf.push(Llid::Start, vec![2; 5]);
        assert_eq!(buf.pop_fragment(17).unwrap().1, vec![1; 5]);
        assert_eq!(buf.pop_fragment(17).unwrap().1, vec![2; 5]);
    }

    #[test]
    fn lmp_jumps_ahead_of_unsent_user_data() {
        let mut buf = TxBuffer::new();
        buf.push(Llid::Start, vec![1; 40]);
        buf.push(Llid::Start, vec![2; 5]);
        buf.push(Llid::Lmp, vec![0x79]);
        // No fragment taken yet: the PDU overtakes every queued user
        // message and goes out first.
        assert_eq!(buf.pop_fragment(17), Some((Llid::Lmp, vec![0x79])));
        assert_eq!(buf.pop_fragment(17), Some((Llid::Start, vec![1; 17])));
    }

    #[test]
    fn lmp_overtakes_a_partially_sent_message_without_breaking_it() {
        let mut buf = TxBuffer::new();
        buf.push(Llid::Start, vec![7; 30]);
        let mut asm = RxAssembler::new();
        let (llid, frag) = buf.pop_fragment(17).unwrap();
        assert_eq!((llid, frag.len()), (Llid::Start, 17));
        asm.push(llid, &frag);
        buf.push(Llid::Lmp, vec![0x11]);
        buf.push(Llid::Lmp, vec![0x22]);
        // PDUs overtake even a message mid-fragmentation (a saturated
        // transfer is one huge message — waiting for it would starve
        // LMP for the whole transfer) and stay FIFO among themselves;
        // the next pops are the PDUs, then the continuation. The
        // reassembler is undisturbed because Lmp fragments bypass it.
        assert_eq!(buf.pop_fragment(17), Some((Llid::Lmp, vec![0x11])));
        asm.push(Llid::Lmp, &[0x11]);
        while let Some((llid, frag)) = buf.pop_fragment(17) {
            asm.push(llid, &frag);
        }
        asm.flush();
        assert_eq!(asm.pop_lmp(), Some(vec![0x11]));
        assert_eq!(asm.pop_lmp(), Some(vec![0x22]));
        assert_eq!(asm.pop_message(), Some(vec![7; 30]));
    }

    #[test]
    fn empty_message_yields_empty_fragment() {
        let mut buf = TxBuffer::new();
        buf.push(Llid::Start, Vec::new());
        assert_eq!(buf.pop_fragment(17), Some((Llid::Start, Vec::new())));
        assert!(buf.is_empty());
    }

    #[test]
    fn assembler_reassembles_fragments() {
        let mut asm = RxAssembler::new();
        asm.push(Llid::Start, &[1, 2, 3]);
        asm.push(Llid::Continuation, &[4, 5]);
        asm.push(Llid::Start, &[9]); // completes previous
        assert_eq!(asm.pop_message(), Some(vec![1, 2, 3, 4, 5]));
        assert_eq!(asm.pop_message(), None);
        asm.flush();
        assert_eq!(asm.pop_message(), Some(vec![9]));
    }

    #[test]
    fn assembler_separates_lmp() {
        let mut asm = RxAssembler::new();
        asm.push(Llid::Lmp, &[0x33]);
        asm.push(Llid::Start, &[1]);
        assert_eq!(asm.pop_lmp(), Some(vec![0x33]));
        assert_eq!(asm.pop_lmp(), None);
    }

    #[test]
    fn stray_continuation_is_dropped() {
        let mut asm = RxAssembler::new();
        asm.push(Llid::Continuation, &[7, 7]);
        asm.flush();
        assert_eq!(asm.pop_message(), None);
    }

    #[test]
    fn drain_bytes_concatenates() {
        let mut asm = RxAssembler::new();
        asm.push(Llid::Start, &[1, 2]);
        asm.push(Llid::Start, &[3]);
        asm.flush();
        assert_eq!(asm.drain_bytes(), vec![1, 2, 3]);
    }

    #[test]
    fn roundtrip_buffer_to_assembler() {
        let data: Vec<u8> = (0..200u8).collect();
        let mut buf = TxBuffer::new();
        buf.push(Llid::Start, data.clone());
        let mut asm = RxAssembler::new();
        while let Some((llid, frag)) = buf.pop_fragment(17) {
            asm.push(llid, &frag);
        }
        asm.flush();
        assert_eq!(asm.pop_message(), Some(data));
    }
}
