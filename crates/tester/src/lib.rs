//! External network tester baseline (the OSNT role in Figure 2).
//!
//! OSNT [Antichi et al., 2014] is an open-source FPGA traffic
//! generator/capture box that attaches to the *front-panel ports* of a
//! device under test. It can measure what goes in and what comes out — and
//! nothing else. This crate reproduces that vantage point **structurally**:
//! [`ExternalView`] wraps a device and exposes only the externally
//! observable surface (send on a port, see which ports emit, wall-clock
//! latency). It deliberately hides:
//!
//! * the internal injection path (`Device::inject`),
//! * per-stage tap counters and the register bus,
//! * drop reasons and pipeline latency breakdowns.
//!
//! Consequently the external tester can detect *that* a packet was lost or
//! mis-forwarded, but not *where* or *why* — which is exactly why Figure 2
//! scores external testers "partial" on functional/performance/compiler/
//! architecture testing and "no" on resources and status monitoring.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use netdebug_hw::{Device, Outcome};
use serde::{Deserialize, Serialize};

/// The externally observable result of sending one packet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExternalObservation {
    /// Frames seen leaving the device: (port, bytes).
    pub outputs: Vec<(u16, Vec<u8>)>,
    /// External round-trip latency in nanoseconds (tester NIC to tester
    /// NIC), when the packet came out at all.
    pub latency_ns: Option<f64>,
}

impl ExternalObservation {
    /// True if nothing came out (the tester cannot know why).
    pub fn lost(&self) -> bool {
        self.outputs.is_empty()
    }
}

/// A view of a device restricted to its external ports.
///
/// Constructing one is the *only* way this crate touches a device: every
/// measurement below goes through [`ExternalView::send`], so the type
/// system guarantees the baseline never peeks inside.
pub struct ExternalView<'a> {
    dev: &'a mut Device,
}

impl<'a> ExternalView<'a> {
    /// Attach the tester to the device's front panel.
    pub fn attach(dev: &'a mut Device) -> Self {
        ExternalView { dev }
    }

    /// Number of front-panel ports.
    pub fn ports(&self) -> u16 {
        self.dev.config().ports
    }

    /// Send one frame into `port`; observe what leaves the device.
    pub fn send(&mut self, port: u16, data: &[u8]) -> ExternalObservation {
        let processed = self.dev.rx(port, data);
        match processed.outcome {
            Outcome::Tx { port: out, data } => ExternalObservation {
                outputs: vec![(out, data.into_vec())],
                latency_ns: Some(processed.total_ns),
            },
            Outcome::Flood { data } => {
                let outputs = (0..self.ports())
                    .filter(|&p| p != port)
                    .map(|p| (p, data.to_vec()))
                    .collect();
                ExternalObservation {
                    outputs,
                    latency_ns: Some(processed.total_ns),
                }
            }
            Outcome::Dropped { .. } => ExternalObservation {
                // The reason is internal; externally the packet just never
                // appears.
                outputs: Vec::new(),
                latency_ns: None,
            },
        }
    }
}

/// A generated traffic flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Template frame.
    pub template: Vec<u8>,
    /// Frames to send.
    pub count: usize,
    /// Ingress port.
    pub ingress: u16,
    /// Optional byte offset whose value is incremented per frame (e.g. to
    /// sweep destination addresses).
    pub vary_byte: Option<usize>,
}

/// Aggregated externally visible results of a flow run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowReport {
    /// Frames sent.
    pub sent: usize,
    /// Frames observed at any output.
    pub received: usize,
    /// Frames that never appeared (loss, from outside).
    pub lost: usize,
    /// Frames per output port.
    pub per_port: Vec<usize>,
    /// Minimum observed latency, ns.
    pub latency_min_ns: f64,
    /// Mean observed latency, ns.
    pub latency_avg_ns: f64,
    /// Maximum observed latency, ns.
    pub latency_max_ns: f64,
    /// Observed goodput in bits/s, assuming frames were sent back-to-back
    /// at line rate.
    pub throughput_bps: f64,
}

/// Run a flow against a device and report what the tester saw.
pub fn run_flow(view: &mut ExternalView<'_>, flow: &FlowSpec) -> FlowReport {
    let ports = usize::from(view.ports());
    let mut per_port = vec![0usize; ports];
    let mut received = 0usize;
    let mut lat_min = f64::INFINITY;
    let mut lat_max: f64 = 0.0;
    let mut lat_sum = 0.0f64;
    let mut lat_n = 0usize;
    let mut rx_bytes = 0usize;

    let mut frame = flow.template.clone();
    for i in 0..flow.count {
        if let Some(off) = flow.vary_byte {
            if off < frame.len() {
                frame[off] = frame[off].wrapping_add(if i == 0 { 0 } else { 1 });
            }
        }
        let obs = view.send(flow.ingress, &frame);
        if !obs.lost() {
            received += 1;
            for (p, data) in &obs.outputs {
                if let Some(slot) = per_port.get_mut(usize::from(*p)) {
                    *slot += 1;
                }
                rx_bytes += data.len();
            }
            if let Some(ns) = obs.latency_ns {
                lat_min = lat_min.min(ns);
                lat_max = lat_max.max(ns);
                lat_sum += ns;
                lat_n += 1;
            }
        }
    }

    // Wall-clock of the run, as the tester would compute it: frames sent
    // back-to-back at line rate on the ingress link.
    let wire_ns_per_frame = ((flow.template.len() + 20) * 8) as f64 / 10.0;
    let run_ns = wire_ns_per_frame * flow.count.max(1) as f64;
    let throughput_bps = (rx_bytes * 8) as f64 / (run_ns / 1e9);

    FlowReport {
        sent: flow.count,
        received,
        lost: flow.count - received,
        per_port,
        latency_min_ns: if lat_n > 0 { lat_min } else { 0.0 },
        latency_avg_ns: if lat_n > 0 {
            lat_sum / lat_n as f64
        } else {
            0.0
        },
        latency_max_ns: lat_max,
        throughput_bps,
    }
}

/// Run a flow while capturing every frame the tester sees — sent frames on
/// the ingress side and received frames on the egress side — into a pcap
/// stream for offline inspection in Wireshark. This is the OSNT capture
/// workflow: the *only* record an external tester can produce.
pub fn run_flow_capturing<W: std::io::Write>(
    view: &mut ExternalView<'_>,
    flow: &FlowSpec,
    pcap: &mut netdebug_packet::PcapWriter<W>,
) -> std::io::Result<FlowReport> {
    let wire_ns_per_frame = ((flow.template.len() + 20) * 8) as f64 / 10.0;
    let mut frame = flow.template.clone();
    let ports = usize::from(view.ports());
    let mut per_port = vec![0usize; ports];
    let mut received = 0usize;
    let mut rx_bytes = 0usize;
    let mut lat = (f64::INFINITY, 0.0f64, 0.0f64, 0usize); // min, max, sum, n

    for i in 0..flow.count {
        if let Some(off) = flow.vary_byte {
            if off < frame.len() {
                frame[off] = frame[off].wrapping_add(if i == 0 { 0 } else { 1 });
            }
        }
        let ts = (wire_ns_per_frame * i as f64 / 1000.0) as u64;
        pcap.write_packet(ts, &frame)?;
        let obs = view.send(flow.ingress, &frame);
        for (p, data) in &obs.outputs {
            let rx_ts = ts + obs.latency_ns.unwrap_or(0.0) as u64 / 1000;
            pcap.write_packet(rx_ts, data)?;
            if let Some(slot) = per_port.get_mut(usize::from(*p)) {
                *slot += 1;
            }
            rx_bytes += data.len();
        }
        if !obs.lost() {
            received += 1;
            if let Some(ns) = obs.latency_ns {
                lat = (lat.0.min(ns), lat.1.max(ns), lat.2 + ns, lat.3 + 1);
            }
        }
    }
    let run_ns = wire_ns_per_frame * flow.count.max(1) as f64;
    Ok(FlowReport {
        sent: flow.count,
        received,
        lost: flow.count - received,
        per_port,
        latency_min_ns: if lat.3 > 0 { lat.0 } else { 0.0 },
        latency_avg_ns: if lat.3 > 0 { lat.2 / lat.3 as f64 } else { 0.0 },
        latency_max_ns: lat.1,
        throughput_bps: (rx_bytes * 8) as f64 / (run_ns / 1e9),
    })
}

/// A single functional check: send `input` on `ingress`, expect `expected`
/// (port, exact bytes) or expect a drop when `None`.
///
/// Returns `Ok(())` or a human-readable mismatch. Note what the message can
/// and cannot say: an external tester knows the packet *didn't come out
/// right*, never which stage is at fault.
pub fn check_forwarding(
    view: &mut ExternalView<'_>,
    ingress: u16,
    input: &[u8],
    expected: Option<(u16, &[u8])>,
) -> Result<(), String> {
    let obs = view.send(ingress, input);
    match (expected, obs.lost()) {
        (None, true) => Ok(()),
        (None, false) => Err(format!(
            "expected the device to drop the packet, but it appeared on port(s) {:?}",
            obs.outputs.iter().map(|(p, _)| *p).collect::<Vec<_>>()
        )),
        (Some((port, bytes)), false) => {
            let Some((out_port, out_bytes)) = obs.outputs.iter().find(|(p, _)| *p == port) else {
                return Err(format!(
                    "expected output on port {port}, saw port(s) {:?}",
                    obs.outputs.iter().map(|(p, _)| *p).collect::<Vec<_>>()
                ));
            };
            if out_bytes != bytes {
                return Err(format!(
                    "output bytes differ on port {out_port} (got {} bytes, want {})",
                    out_bytes.len(),
                    bytes.len()
                ));
            }
            Ok(())
        }
        (Some((port, _)), true) => Err(format!(
            "expected output on port {port}, but the packet never left the device"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdebug_dataplane::{TableEntry, Update};
    use netdebug_hw::Backend;
    use netdebug_p4::corpus;
    use netdebug_packet::{EthernetAddress, Ipv4Address, PacketBuilder};

    fn router(backend: &Backend) -> Device {
        let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
        let mut dev = Device::deploy(backend, &ir).unwrap();
        dev.write(&[Update::Insert(
            "ipv4_lpm",
            TableEntry::lpm(0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1]),
        )])
        .unwrap();
        dev
    }

    fn ip_frame(dst: Ipv4Address, version: u8) -> Vec<u8> {
        let mut f = PacketBuilder::ethernet(
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(2, 0, 0, 0, 0, 2),
        )
        .ipv4(Ipv4Address::new(10, 0, 0, 1), dst)
        .udp(9, 9)
        .payload(b"test")
        .build();
        f[14] = (version << 4) | 5;
        f
    }

    #[test]
    fn observes_forwarding_and_latency() {
        let mut dev = router(&Backend::reference());
        let mut view = ExternalView::attach(&mut dev);
        let obs = view.send(0, &ip_frame(Ipv4Address::new(10, 0, 0, 9), 4));
        assert_eq!(obs.outputs.len(), 1);
        assert_eq!(obs.outputs[0].0, 1);
        assert!(obs.latency_ns.unwrap() > 500.0, "MAC latency included");
    }

    #[test]
    fn loss_is_visible_but_reason_is_not() {
        let mut dev = router(&Backend::reference());
        let mut view = ExternalView::attach(&mut dev);
        // Parser-rejected packet: externally it just vanishes.
        let obs = view.send(0, &ip_frame(Ipv4Address::new(10, 0, 0, 9), 5));
        assert!(obs.lost());
        assert!(obs.latency_ns.is_none());
        // The observation type has no field that could carry a drop reason
        // or a stage name — the restriction is structural.
    }

    #[test]
    fn flow_report_counts_loss() {
        let mut dev = router(&Backend::reference());
        let mut view = ExternalView::attach(&mut dev);
        // Vary the last dst octet: 10.0.0.0..=10.0.0.9 all route; then the
        // template flips to 11.x which misses and drops.
        let mut template = ip_frame(Ipv4Address::new(10, 0, 0, 0), 4);
        let report = run_flow(
            &mut view,
            &FlowSpec {
                template: template.clone(),
                count: 10,
                ingress: 0,
                vary_byte: None,
            },
        );
        assert_eq!(report.sent, 10);
        assert_eq!(report.received, 10);
        assert_eq!(report.lost, 0);
        assert_eq!(report.per_port[1], 10);
        assert!(report.latency_avg_ns >= report.latency_min_ns - 1e-6);
        assert!(report.latency_max_ns >= report.latency_avg_ns - 1e-6);
        assert!(report.throughput_bps > 0.0);

        // Out-of-table destination: 100% loss, visible externally.
        template[14 + 16] = 192; // dst 192.0.0.0
        let report = run_flow(
            &mut view,
            &FlowSpec {
                template,
                count: 5,
                ingress: 0,
                vary_byte: None,
            },
        );
        assert_eq!((report.sent, report.lost), (5, 5));
    }

    #[test]
    fn functional_check_detects_sdnet_reject_bug_without_localising() {
        // The external tester CAN see the reject bug (send malformed,
        // expect drop, packet appears) — Figure 2 scores it "partial" on
        // functional testing: detection without localisation.
        let mut dev = router(&Backend::sdnet_2018());
        let mut view = ExternalView::attach(&mut dev);
        let malformed = ip_frame(Ipv4Address::new(10, 0, 0, 9), 5);
        let err = check_forwarding(&mut view, 0, &malformed, None).unwrap_err();
        assert!(
            err.contains("expected the device to drop"),
            "externally visible failure: {err}"
        );
        // The error message carries port numbers only — no stage, no reason.
        assert!(!err.contains("parser"));
        assert!(!err.contains("reject"));
    }

    #[test]
    fn functional_check_passes_on_reference() {
        let mut dev = router(&Backend::reference());
        let mut view = ExternalView::attach(&mut dev);
        let malformed = ip_frame(Ipv4Address::new(10, 0, 0, 9), 5);
        assert!(check_forwarding(&mut view, 0, &malformed, None).is_ok());
    }

    #[test]
    fn expected_output_mismatch_reported() {
        let mut dev = router(&Backend::reference());
        let mut view = ExternalView::attach(&mut dev);
        let ok = ip_frame(Ipv4Address::new(10, 0, 0, 9), 4);
        // Wrong expected port.
        let err = check_forwarding(&mut view, 0, &ok, Some((3, &ok))).unwrap_err();
        assert!(err.contains("expected output on port 3"), "{err}");
        // Wrong expected bytes (device rewrites MAC + TTL).
        let err = check_forwarding(&mut view, 0, &ok, Some((1, &ok))).unwrap_err();
        assert!(err.contains("bytes differ"), "{err}");
    }

    #[test]
    fn pcap_capture_records_both_directions() {
        let mut dev = router(&Backend::reference());
        let mut view = ExternalView::attach(&mut dev);
        let mut pcap = netdebug_packet::PcapWriter::new(Vec::new()).unwrap();
        let report = run_flow_capturing(
            &mut view,
            &FlowSpec {
                template: ip_frame(Ipv4Address::new(10, 0, 0, 9), 4),
                count: 5,
                ingress: 0,
                vary_byte: None,
            },
            &mut pcap,
        )
        .unwrap();
        assert_eq!(report.received, 5);
        // 5 tx + 5 rx frames captured.
        assert_eq!(pcap.packet_count(), 10);
        let bytes = pcap.finish().unwrap();
        // Classic pcap magic.
        assert_eq!(&bytes[0..4], &0xa1b2_c3d4u32.to_le_bytes());
        // Dropped packets only appear once (the tx side).
        let mut dev = router(&Backend::reference());
        let mut view = ExternalView::attach(&mut dev);
        let mut pcap = netdebug_packet::PcapWriter::new(Vec::new()).unwrap();
        let report = run_flow_capturing(
            &mut view,
            &FlowSpec {
                template: ip_frame(Ipv4Address::new(10, 0, 0, 9), 5), // rejected
                count: 3,
                ingress: 0,
                vary_byte: None,
            },
            &mut pcap,
        )
        .unwrap();
        assert_eq!(report.lost, 3);
        assert_eq!(pcap.packet_count(), 3);
    }

    #[test]
    fn vary_byte_sweeps_addresses() {
        let ir = netdebug_p4::compile(corpus::L2_SWITCH).unwrap();
        let mut dev = Device::deploy(&Backend::reference(), &ir).unwrap();
        let mut view = ExternalView::attach(&mut dev);
        let template = PacketBuilder::ethernet(
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(9, 9, 9, 9, 9, 0),
        )
        .payload(b"x")
        .build();
        // Unknown dmacs flood to the 3 other ports each.
        let report = run_flow(
            &mut view,
            &FlowSpec {
                template,
                count: 4,
                ingress: 0,
                vary_byte: Some(5), // last dmac octet
            },
        );
        assert_eq!(report.received, 4);
        assert_eq!(report.per_port[0], 0);
        assert_eq!(report.per_port[1], 4);
        assert_eq!(report.per_port[2], 4);
        assert_eq!(report.per_port[3], 4);
    }
}
