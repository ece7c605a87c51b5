//! Status monitoring use-case (§3, sixth bullet): "providing periodic
//! internal status information".
//!
//! The controller samples the register bus at intervals while traffic runs:
//! port counters, stage tap counters, table occupancy and drop counters.
//! The timeline shows load distribution and anomalies (e.g. a stage whose
//! counter stops advancing) *while the device forwards live traffic* —
//! something neither a verifier nor an external tester can produce.

use crate::generator::StreamSpec;
use crate::session::NetDebug;
use serde::{Deserialize, Serialize};

/// One register-bus snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusSample {
    /// Device time when sampled.
    pub at_cycle: u64,
    /// Packets injected so far (generator side).
    pub injected: u64,
    /// (port, rx_packets, tx_packets) triples.
    pub ports: Vec<(u16, u64, u64)>,
    /// (stage name, packets seen).
    pub stages: Vec<(String, u64)>,
    /// (table name, occupancy, capacity, hits, misses).
    pub tables: Vec<(String, usize, u64, u64, u64)>,
}

/// A timeline of samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusTimeline {
    /// Samples in time order.
    pub samples: Vec<StatusSample>,
}

impl StatusTimeline {
    /// The per-stage deltas between the first and last sample.
    pub fn stage_deltas(&self) -> Vec<(String, u64)> {
        let (Some(first), Some(last)) = (self.samples.first(), self.samples.last()) else {
            return Vec::new();
        };
        first
            .stages
            .iter()
            .zip(&last.stages)
            .map(|((name, a), (_, b))| (name.clone(), b - a))
            .collect()
    }

    /// Stages that saw no packets across the whole timeline — dead logic or
    /// a hole in test coverage.
    pub fn idle_stages(&self) -> Vec<String> {
        self.stage_deltas()
            .into_iter()
            .filter(|(_, d)| *d == 0)
            .map(|(n, _)| n)
            .collect()
    }
}

/// Take one snapshot of a device through the NetDebug controller.
pub fn snapshot(nd: &NetDebug, injected: u64) -> StatusSample {
    let dev = nd.device();
    let ports = (0..dev.config().ports)
        .map(|p| {
            let s = dev.port_stats(p);
            (p, s.rx_packets, s.tx_packets)
        })
        .collect();
    let stages = dev
        .stage_names()
        .iter()
        .map(|n| n.to_string())
        .zip(dev.stage_counts().iter().copied())
        .collect();
    let tables = dev
        .compiled()
        .program
        .tables
        .iter()
        .map(|t| {
            let (hits, misses, occ, cap) = dev.table_stats(&t.name).unwrap_or((0, 0, 0, 0));
            (t.name.clone(), occ, cap, hits, misses)
        })
        .collect();
    StatusSample {
        at_cycle: dev.now(),
        injected,
        ports,
        stages,
        tables,
    }
}

/// Run `traffic` in `samples` slices, snapshotting between slices.
pub fn monitor(nd: &mut NetDebug, traffic: &StreamSpec, samples: usize) -> StatusTimeline {
    let mut timeline = StatusTimeline {
        samples: vec![snapshot(nd, 0)],
    };
    let chunk = (traffic.count / samples.max(1) as u64).max(1);
    let mut sent = 0u64;
    // One stream id per slice, counting up from `traffic.stream`; the last
    // id takes whatever is left rather than wrapping onto stream 0.
    for stream in traffic.stream..=u16::MAX {
        let left = traffic.count - sent;
        if left == 0 {
            break;
        }
        let mut spec = traffic.clone();
        spec.stream = stream;
        spec.count = if stream == u16::MAX {
            left
        } else {
            chunk.min(left)
        };
        nd.run_stream(&spec);
        sent += spec.count;
        timeline.samples.push(snapshot(nd, sent));
    }
    timeline
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::Expectation;
    use netdebug_hw::{Backend, Device};
    use netdebug_p4::corpus;
    use netdebug_packet::{EthernetAddress, PacketBuilder};

    #[test]
    fn timeline_counts_advance_monotonically() {
        let dev = Device::deploy_source(&Backend::reference(), corpus::REFLECTOR).unwrap();
        let mut nd = NetDebug::new(dev);
        let frame = PacketBuilder::ethernet(
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(2, 0, 0, 0, 0, 2),
        )
        .payload(b"status")
        .build();
        let traffic = StreamSpec {
            stream: 100,
            template: frame,
            count: 40,
            rate_pps: Some(1e6),
            as_port: 2,
            sweeps: vec![],
            expect: Expectation::Forward { port: Some(2) },
        };
        let timeline = monitor(&mut nd, &traffic, 4);
        assert_eq!(timeline.samples.len(), 5);
        // Monotone injected counts and device time.
        for w in timeline.samples.windows(2) {
            assert!(w[1].injected >= w[0].injected);
            assert!(w[1].at_cycle >= w[0].at_cycle);
        }
        // All 40 packets traversed the parser stage.
        let deltas = timeline.stage_deltas();
        let parser = deltas.iter().find(|(n, _)| n == "parser:start").unwrap();
        assert_eq!(parser.1, 40);
        // Nothing is idle in the reflector.
        assert!(
            timeline.idle_stages().is_empty(),
            "{:?}",
            timeline.idle_stages()
        );
        // Egress MAC counters visible per port.
        let last = timeline.samples.last().unwrap();
        let port2 = last.ports.iter().find(|(p, _, _)| *p == 2).unwrap();
        assert_eq!(port2.2, 40, "tx on port 2");
    }

    #[test]
    fn slices_never_wrap_the_stream_id() {
        // Stream 65 535 has one id left: two requested samples become one
        // slice of all ten packets, not a second slice on stream 0.
        let dev = Device::deploy_source(&Backend::reference(), corpus::REFLECTOR).unwrap();
        let mut nd = NetDebug::new(dev);
        let traffic = StreamSpec::simple(
            u16::MAX,
            PacketBuilder::ethernet(
                EthernetAddress::new(2, 0, 0, 0, 0, 1),
                EthernetAddress::new(2, 0, 0, 0, 0, 2),
            )
            .build(),
            10,
            Expectation::Any,
        );
        let timeline = monitor(&mut nd, &traffic, 2);
        assert_eq!(timeline.samples.len(), 2);
        assert_eq!(timeline.samples[1].injected, 10);
        let streams = nd.checker().streams();
        assert_eq!(streams.len(), 1, "one slice, one stream id");
        let stats = &streams[&u16::MAX];
        assert_eq!((stats.received, stats.duplicates, stats.lost()), (10, 0, 0));
    }

    #[test]
    fn idle_stage_detection() {
        // Router with no routes installed: the deparser/egress stages stay
        // idle for drop-only traffic — status monitoring surfaces that.
        let dev = Device::deploy_source(&Backend::reference(), corpus::IPV4_FORWARD).unwrap();
        let mut nd = NetDebug::new(dev);
        let frame = PacketBuilder::ethernet(
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(2, 0, 0, 0, 0, 2),
        )
        .payload(&[0u8; 40])
        .build();
        let traffic = StreamSpec {
            stream: 1,
            template: frame,
            count: 10,
            rate_pps: None,
            as_port: 0,
            sweeps: vec![],
            expect: Expectation::Drop,
        };
        let timeline = monitor(&mut nd, &traffic, 2);
        let idle = timeline.idle_stages();
        assert!(idle.contains(&"deparser".to_string()), "{idle:?}");
        assert!(idle.contains(&"egress".to_string()));
        // Table occupancy is reported (empty here).
        let last = timeline.samples.last().unwrap();
        assert_eq!(last.tables[0].1, 0);
    }
}
