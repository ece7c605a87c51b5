//! Fault localisation from stage tap counters.
//!
//! "If a bug prevents packets from being correctly forwarded to the output
//! interfaces of the device, users can find where the fault occurred, even
//! inside the data plane." — §2. The mechanism: every pipeline stage keeps
//! a packet counter readable over the register bus. Injecting a probe
//! packet and diffing the counters shows exactly how deep the packet got;
//! the first stage whose counter did *not* increment is where it vanished.

use netdebug_hw::Device;
use serde::{Deserialize, Serialize};

/// Where a probe packet went.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Localization {
    /// Stages whose counters incremented, in pipeline order.
    pub stages_reached: Vec<String>,
    /// The last stage reached; `egress` means the packet left the device.
    pub deepest: String,
    /// The next stage after `deepest` (where the packet should have gone),
    /// if any — the prime suspect for a drop.
    pub vanished_before: Option<String>,
    /// True if the packet made it out.
    pub forwarded: bool,
}

impl core::fmt::Display for Localization {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.forwarded {
            write!(
                f,
                "packet traversed the pipeline: {}",
                self.stages_reached.join(" -> ")
            )
        } else {
            write!(
                f,
                "packet vanished after `{}`{}",
                self.deepest,
                match &self.vanished_before {
                    Some(next) => format!(" (never reached `{next}`)"),
                    None => String::new(),
                }
            )
        }
    }
}

/// Inject a probe packet and localise how far it got, using only the
/// register bus (exactly what the host tool can do against real hardware).
pub fn localize(device: &mut Device, as_port: u16, packet: &[u8]) -> Localization {
    let (outcome, stages_reached) = crate::differential::stages_reached(device, as_port, packet);
    let deepest = stages_reached
        .last()
        .cloned()
        .unwrap_or_else(|| "ingress".to_string());
    let forwarded = outcome.transmitted();
    let vanished_before = if forwarded {
        None
    } else {
        // Next stage in pipeline order after the deepest reached.
        let stage_names = device.stage_names();
        stage_names
            .iter()
            .position(|n| **n == *deepest)
            .and_then(|i| stage_names.get(i + 1))
            .map(|n| n.to_string())
    };

    Localization {
        stages_reached,
        deepest,
        vanished_before,
        forwarded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdebug_dataplane::{TableEntry, Update};
    use netdebug_hw::Backend;
    use netdebug_p4::corpus;
    use netdebug_packet::{EthernetAddress, Ipv4Address, PacketBuilder};

    fn router() -> Device {
        let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
        let mut dev = Device::deploy(&Backend::reference(), &ir).unwrap();
        dev.write(&[Update::Insert(
            "ipv4_lpm",
            TableEntry::lpm(0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1]),
        )])
        .unwrap();
        dev
    }

    fn frame(version: u8, dst: Ipv4Address) -> Vec<u8> {
        let mut f = PacketBuilder::ethernet(
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(2, 0, 0, 0, 0, 2),
        )
        .ipv4(Ipv4Address::new(10, 0, 0, 1), dst)
        .udp(1, 2)
        .build();
        f[14] = (version << 4) | 5;
        f
    }

    #[test]
    fn forwarded_packet_reaches_egress() {
        let mut dev = router();
        let loc = localize(&mut dev, 0, &frame(4, Ipv4Address::new(10, 0, 0, 9)));
        assert!(loc.forwarded);
        assert_eq!(loc.deepest, "egress");
        assert!(loc.stages_reached.contains(&"table:ipv4_lpm".to_string()));
        assert!(loc.to_string().contains("traversed"));
    }

    #[test]
    fn parser_drop_localised_to_state() {
        let mut dev = router();
        let loc = localize(&mut dev, 0, &frame(5, Ipv4Address::new(10, 0, 0, 9)));
        assert!(!loc.forwarded);
        assert_eq!(loc.deepest, "parser:parse_ipv4");
        assert_eq!(loc.vanished_before.as_deref(), Some("table:ipv4_lpm"));
        assert!(loc
            .to_string()
            .contains("vanished after `parser:parse_ipv4`"));
    }

    #[test]
    fn table_drop_localised_to_table() {
        let mut dev = router();
        // Unroutable destination: reaches the table, dies there.
        let loc = localize(&mut dev, 0, &frame(4, Ipv4Address::new(192, 168, 0, 1)));
        assert!(!loc.forwarded);
        assert_eq!(loc.deepest, "table:ipv4_lpm");
        assert_eq!(loc.vanished_before.as_deref(), Some("deparser"));
    }

    #[test]
    fn localization_matches_on_buggy_backend() {
        // On SDNet-sim the malformed packet sails straight through —
        // localisation shows it reaching egress, which combined with the
        // expectation tells the user the *parser* accepted what it must
        // reject.
        let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
        let mut dev = Device::deploy(&Backend::sdnet_2018(), &ir).unwrap();
        dev.write(&[Update::Insert(
            "ipv4_lpm",
            TableEntry::lpm(0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1]),
        )])
        .unwrap();
        let loc = localize(&mut dev, 0, &frame(5, Ipv4Address::new(10, 0, 0, 9)));
        assert!(loc.forwarded, "{loc}");
        assert_eq!(loc.deepest, "egress");
    }
}
