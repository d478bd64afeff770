//! AFH channel assessment: classifying RF channels from the link
//! controller's own reception outcomes (spec v1.2 "channel assessment",
//! the input side of adaptive frequency hopping).
//!
//! Every connection-state reception is scored against the channel it
//! arrived on: a delivery that decodes cleanly (sync word, HEC, CRC all
//! pass, no collision mask) counts *good*; a delivery carrying a
//! collision mask — device-vs-device overlap or an interferer burst —
//! or failing any decode stage counts *bad*. The counters feed
//! [`ChannelAssessment::proposed_map`], which turns the per-channel
//! picture into a [`ChannelMap`] proposal: channels whose bad fraction
//! crosses a threshold (with enough samples to trust it) are blocked,
//! clamped so at least [`MIN_AFH_CHANNELS`] always stay in use.
//!
//! The assessor only *observes* — it never changes controller behaviour
//! on its own. The host (link manager / scenario layer) reads the
//! proposal, exchanges it over LMP (`LMP_channel_classification` /
//! `LMP_set_AFH`) and schedules the synchronized map switch.

use crate::hop::{ChannelMap, CHANNELS, MIN_AFH_CHANNELS};

/// Per-RF-channel reception scoring of one link controller.
#[derive(Debug, Clone)]
pub struct ChannelAssessment {
    good: [u32; CHANNELS as usize],
    bad: [u32; CHANNELS as usize],
}

impl Default for ChannelAssessment {
    fn default() -> Self {
        Self {
            good: [0; CHANNELS as usize],
            bad: [0; CHANNELS as usize],
        }
    }
}

impl ChannelAssessment {
    /// An empty assessment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one reception outcome on `rf_channel`.
    pub(crate) fn note(&mut self, rf_channel: u8, good: bool) {
        let Some(slot) = (if good {
            self.good.get_mut(rf_channel as usize)
        } else {
            self.bad.get_mut(rf_channel as usize)
        }) else {
            return;
        };
        *slot = slot.saturating_add(1);
    }

    /// `(good, bad)` reception counts of one channel.
    pub fn counts(&self, rf_channel: u8) -> (u32, u32) {
        let ch = rf_channel as usize;
        (
            self.good.get(ch).copied().unwrap_or(0),
            self.bad.get(ch).copied().unwrap_or(0),
        )
    }

    /// Total receptions scored across all channels.
    pub fn samples(&self) -> u64 {
        self.good
            .iter()
            .chain(self.bad.iter())
            .map(|&c| c as u64)
            .sum()
    }

    /// Clears all counters (start a fresh assessment window).
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Classifies the channels into a proposed [`ChannelMap`]: a channel
    /// with at least `min_samples` observations whose bad fraction is at
    /// or above `bad_threshold` is blocked. When blocking would leave
    /// fewer than [`MIN_AFH_CHANNELS`] channels, the least-bad blocked
    /// candidates are re-admitted (deterministically: lowest bad
    /// fraction first, channel index breaking ties) until the spec floor
    /// holds — the proposal is therefore always a valid map.
    pub fn proposed_map(&self, min_samples: u32, bad_threshold: f64) -> ChannelMap {
        let mut used = [true; CHANNELS as usize];
        let mut blocked: Vec<(f64, u8)> = Vec::new();
        for (ch, slot) in used.iter_mut().enumerate() {
            let (g, b) = (self.good[ch], self.bad[ch]);
            let n = g + b;
            if n >= min_samples.max(1) {
                let frac = b as f64 / n as f64;
                if frac >= bad_threshold {
                    *slot = false;
                    blocked.push((frac, ch as u8));
                }
            }
        }
        let mut count = used.iter().filter(|&&u| u).count();
        if count < MIN_AFH_CHANNELS {
            blocked.sort_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .expect("bad fractions are finite")
                    .then(a.1.cmp(&b.1))
            });
            for (_, ch) in blocked {
                if count >= MIN_AFH_CHANNELS {
                    break;
                }
                used[ch as usize] = true;
                count += 1;
            }
        }
        ChannelMap::try_from_used(used).expect("clamped to the spec floor")
    }
}

btsim_kernel::snap_struct! { ChannelAssessment { good, bad } }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_channels_stay_used() {
        let mut a = ChannelAssessment::new();
        for ch in 0..CHANNELS {
            for _ in 0..10 {
                a.note(ch, true);
            }
        }
        let map = a.proposed_map(4, 0.3);
        assert_eq!(map.used_count(), CHANNELS as usize);
        assert_eq!(a.samples(), 790);
    }

    #[test]
    fn bad_channels_are_blocked_above_the_threshold() {
        let mut a = ChannelAssessment::new();
        for ch in 0..CHANNELS {
            let in_band = (29..=50).contains(&ch);
            for k in 0..10 {
                // In-band: 60% bad; out of band: all good.
                a.note(ch, !(in_band && k < 6));
            }
        }
        let map = a.proposed_map(4, 0.3);
        assert_eq!(map.used_count(), 79 - 22);
        for ch in 0..CHANNELS {
            assert_eq!(map.is_used(ch), !(29..=50).contains(&ch), "channel {ch}");
        }
        assert_eq!(a.counts(29), (4, 6));
        assert_eq!(a.counts(0), (10, 0));
    }

    #[test]
    fn under_sampled_channels_are_not_classified() {
        let mut a = ChannelAssessment::new();
        a.note(7, false);
        a.note(7, false);
        // Two bad samples < min_samples: not enough evidence to block.
        assert_eq!(a.proposed_map(4, 0.3).used_count(), CHANNELS as usize);
        a.note(7, false);
        a.note(7, false);
        assert!(!a.proposed_map(4, 0.3).is_used(7));
    }

    #[test]
    fn proposal_is_clamped_to_the_spec_floor() {
        let mut a = ChannelAssessment::new();
        // Every channel looks bad, with channel-dependent severity.
        for ch in 0..CHANNELS {
            let bad = 4 + (ch as u32 % 7);
            for _ in 0..bad {
                a.note(ch, false);
            }
            a.note(ch, true);
        }
        let map = a.proposed_map(1, 0.1);
        assert_eq!(
            map.used_count(),
            MIN_AFH_CHANNELS,
            "clamp keeps exactly the spec floor when everything is bad"
        );
        // Determinism: the same counters always produce the same map.
        assert_eq!(map, a.proposed_map(1, 0.1));
    }

    #[test]
    fn reset_clears_the_window() {
        let mut a = ChannelAssessment::new();
        a.note(3, false);
        assert_eq!(a.samples(), 1);
        a.reset();
        assert_eq!(a.samples(), 0);
        assert_eq!(a.counts(3), (0, 0));
    }
}
