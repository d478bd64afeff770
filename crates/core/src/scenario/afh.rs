//! The closed AFH loop as a scenario: channel assessment →
//! `LMP_channel_classification` → `LMP_set_AFH` → synchronized hop
//! remapping, measured against a fixed-band 802.11 interferer.
//!
//! The scenario saturates a master→slave ACL link while a WLAN occupies
//! part of the band, lets both ends score their reception outcomes per
//! RF channel, then runs the host-side AFH policy: the slave reports
//! its classification, the master intersects it with its own view and
//! announces the combined map with a switch instant, and both basebands
//! remap their hop sequences at that instant. Goodput is measured
//! before and after, giving the recovery the v1.2 standard promises
//! over the paper's coexistence baseline (refs [4-5] of Conti &
//! Moretti, DATE'05).

use btsim_baseband::hop::ChannelMap;
use btsim_baseband::LcCommand;
use btsim_channel::Interferer;
use btsim_kernel::{SimDuration, SimTime};
use btsim_lmp::LmEvent;
use btsim_stats::Record;

use crate::{AfhConfig, SimBuilder, SimConfig, Simulator};

use super::{acl_bytes_since, connect_pair, paper_config, Scenario};

/// Configuration of the AFH adaptation scenario.
#[derive(Debug, Clone)]
pub struct AfhAdaptConfig {
    /// The fixed-band interferer the piconet adapts around.
    pub wlan: Interferer,
    /// The AFH policy (thresholds, assessment window, on/off).
    pub afh: AfhConfig,
    /// Post-switch goodput measurement window, in slots.
    pub window_slots: u64,
    /// Bytes queued per transfer phase (large enough to saturate).
    pub payload_bytes: usize,
    /// Simulator configuration (defaults to [`paper_config`]).
    pub sim: SimConfig,
}

impl Default for AfhAdaptConfig {
    fn default() -> Self {
        Self {
            wlan: Interferer::wlan(40, 0.5),
            afh: AfhConfig {
                enabled: true,
                ..AfhConfig::default()
            },
            window_slots: 2_500,
            payload_bytes: 300_000,
            sim: paper_config(),
        }
    }
}

/// Result of one AFH adaptation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AfhAdaptOutcome {
    /// The pair connected and the transfer ran.
    pub connected: bool,
    /// A map switch was negotiated and took effect (always `false`
    /// with the policy disabled).
    pub switched: bool,
    /// Goodput over the assessment window, AFH not yet active (kbit/s).
    pub kbps_before: f64,
    /// Goodput over the post-adaptation window (kbit/s).
    pub kbps_after: f64,
    /// Slots from the start of the policy run to the negotiated switch
    /// instant (map convergence time; `0` when no switch happened).
    pub converge_slots: f64,
    /// Fraction of the interferer's band the in-use map blocks after
    /// adaptation (`0` without a switch).
    pub blocked_in_band: f64,
    /// Interferer hits on this piconet's packets during the post
    /// window (from the medium's per-channel counters; an adapted map
    /// drives this to ~0).
    pub jam_hits_after: f64,
}

impl AfhAdaptOutcome {
    /// Goodput after / goodput before (`1.0` when before is zero).
    pub fn recovery(&self) -> f64 {
        if self.kbps_before > 0.0 {
            self.kbps_after / self.kbps_before
        } else {
            1.0
        }
    }
}

impl Record for AfhAdaptOutcome {
    fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("kbps_before", self.kbps_before),
            ("kbps_after", self.kbps_after),
            ("recovery", self.recovery()),
            ("converge_slots", self.converge_slots),
            ("blocked_in_band", self.blocked_in_band),
            ("jam_hits_after", self.jam_hits_after),
        ]
    }

    fn completed(&self) -> bool {
        self.connected
    }
}

/// Saturated ACL transfer under a WLAN interferer with the full AFH
/// loop closed (or, with the policy disabled, the uncorrected
/// coexistence baseline).
#[derive(Debug, Clone)]
pub struct AfhAdaptScenario {
    cfg: AfhAdaptConfig,
}

impl AfhAdaptScenario {
    /// Creates the scenario.
    pub fn new(cfg: AfhAdaptConfig) -> Self {
        Self { cfg }
    }
}

impl Scenario for AfhAdaptScenario {
    type Config = AfhAdaptConfig;
    type Outcome = AfhAdaptOutcome;

    fn name(&self) -> &'static str {
        "afh_adapt"
    }

    fn config(&self) -> &AfhAdaptConfig {
        &self.cfg
    }

    fn build(&self, seed: u64) -> Simulator {
        let mut cfg = self.cfg.sim.clone();
        cfg.afh = self.cfg.afh;
        cfg.channel.interferers.push(self.cfg.wlan);
        let mut b = SimBuilder::new(seed, cfg);
        b.add_device("master");
        b.add_device("slave1");
        b.build()
    }

    fn drive(&self, sim: &mut Simulator) -> AfhAdaptOutcome {
        let (master, slave) = (0, 1);
        let failed = AfhAdaptOutcome {
            connected: false,
            switched: false,
            kbps_before: 0.0,
            kbps_after: 0.0,
            converge_slots: 0.0,
            blocked_in_band: 0.0,
            jam_hits_after: 0.0,
        };
        let Some(lt) = connect_pair(sim, master, slave, SimTime::from_us(120_000_000)) else {
            return failed;
        };
        let afh = self.cfg.afh;
        sim.command(master, LcCommand::SetTpoll(2));
        sim.command(
            master,
            LcCommand::AclData {
                lt_addr: lt,
                data: vec![0xD7; self.cfg.payload_bytes],
            },
        );
        // Phase A — saturated transfer under the interferer, AFH off:
        // the goodput baseline, and the traffic both ends score their
        // channel assessments on.
        let a_start = sim.now();
        let a_window = SimDuration::from_slots(afh.assess_slots.max(1));
        sim.run_until(a_start + a_window);
        let kbps_before =
            (acl_bytes_since(sim, slave, a_start) as f64 * 8.0) / a_window.secs_f64() / 1000.0;

        let mut switched = false;
        let mut converge_slots = 0.0;
        let mut blocked_in_band = 0.0;
        if afh.enabled {
            let policy_start_slot = sim.now().slots();
            // The slave reports its classification over LMP…
            let slave_map = sim
                .lc(slave)
                .channel_assessment()
                .proposed_map(afh.min_samples, afh.bad_threshold);
            sim.lm_request(slave, |lm, _slot| {
                lm.send_channel_classification(lt, slave_map)
            });
            // …and the master waits for it (bounded; the PDU rides the
            // prioritized LMP queue through the saturated link).
            let report_deadline = sim.now() + SimDuration::from_slots(600);
            let mut reported: Option<ChannelMap> = None;
            while reported.is_none() && sim.now() < report_deadline {
                sim.run_until(sim.now() + SimDuration::from_slots(20));
                reported = sim.lm_events().iter().rev().find_map(|e| match &e.event {
                    LmEvent::ChannelClassification { map, .. } if e.device == master => {
                        Some(map.clone())
                    }
                    _ => None,
                });
            }
            // The master combines the report with its own assessment
            // (intersection, falling back to its own view when the
            // combination would dip below the spec's 20-channel floor
            // or the report never arrived) and announces the switch.
            let own = sim
                .lc(master)
                .channel_assessment()
                .proposed_map(afh.min_samples, afh.bad_threshold);
            let combined = match &reported {
                Some(s) => own.intersect(s).unwrap_or(own),
                None => own,
            };
            sim.lm_request(master, |lm, slot| {
                lm.request_set_afh(lt, combined.clone(), slot)
            });
            if let Some((map, instant)) = sim
                .lc(master)
                .afh_pending_switch()
                .map(|(m, at)| (m.clone(), at))
            {
                switched = true;
                converge_slots = instant.saturating_sub(policy_start_slot) as f64;
                let band: Vec<u8> = (0..79).filter(|&ch| self.cfg.wlan.covers(ch)).collect();
                if !band.is_empty() {
                    blocked_in_band = band.iter().filter(|&&ch| !map.is_used(ch)).count() as f64
                        / band.len() as f64;
                }
                // Run through the switch instant (plus ACK slack).
                let switch_at = SimTime::ZERO + SimDuration::from_slots(instant + 4);
                if switch_at > sim.now() {
                    sim.run_until(switch_at);
                }
            }
        }

        // Phase B — the post window: same saturated transfer, adapted
        // map (or still the full band when the policy is off).
        sim.command(
            master,
            LcCommand::AclData {
                lt_addr: lt,
                data: vec![0xD7; self.cfg.payload_bytes],
            },
        );
        let b_start = sim.now();
        let quality_snapshot = sim.channel_quality();
        let b_window = SimDuration::from_slots(self.cfg.window_slots.max(1));
        sim.run_until(b_start + b_window);
        let kbps_after =
            (acl_bytes_since(sim, slave, b_start) as f64 * 8.0) / b_window.secs_f64() / 1000.0;
        let jam_hits_after = sim
            .channel_quality()
            .since(&quality_snapshot)
            .total()
            .jammed as f64;

        AfhAdaptOutcome {
            connected: true,
            switched,
            kbps_before,
            kbps_after,
            converge_slots,
            blocked_in_band,
            jam_hits_after,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn afh_recovers_goodput_under_a_wlan_interferer() {
        let out = AfhAdaptScenario::new(AfhAdaptConfig {
            wlan: Interferer::wlan(40, 1.0),
            window_slots: 1_500,
            afh: AfhConfig {
                enabled: true,
                assess_slots: 1_500,
                ..AfhConfig::default()
            },
            ..AfhAdaptConfig::default()
        })
        .run(11);
        assert!(out.connected);
        assert!(out.switched, "the map exchange must complete");
        assert!(
            out.kbps_after > out.kbps_before * 1.1,
            "AFH must recover goodput: before {} after {}",
            out.kbps_before,
            out.kbps_after
        );
        assert!(
            out.blocked_in_band > 0.8,
            "most of the jammed band must be blocked, got {}",
            out.blocked_in_band
        );
        assert_eq!(
            out.jam_hits_after, 0.0,
            "an adapted map must not land in a full-duty band"
        );
        assert!(out.converge_slots > 0.0);
    }

    #[test]
    fn disabled_policy_keeps_the_degraded_baseline() {
        let out = AfhAdaptScenario::new(AfhAdaptConfig {
            wlan: Interferer::wlan(40, 1.0),
            window_slots: 1_500,
            afh: AfhConfig {
                enabled: false,
                assess_slots: 1_500,
                ..AfhConfig::default()
            },
            ..AfhAdaptConfig::default()
        })
        .run(11);
        assert!(out.connected);
        assert!(!out.switched);
        assert!(out.jam_hits_after > 0.0, "the full band keeps being hit");
        assert!(
            out.recovery() < 1.15,
            "no adaptation, no recovery: {}",
            out.recovery()
        );
    }
}
