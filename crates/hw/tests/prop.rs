//! Property-based tests for the device model.

use netdebug_hw::{Backend, Device};
use netdebug_p4::corpus;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The device never panics, whatever bytes arrive on whatever port,
    /// with either backend and either datapath.
    #[test]
    fn device_never_panics(
        prog_idx in 0usize..8,
        data in proptest::collection::vec(any::<u8>(), 0..200),
        port in 0u16..8,
        external in any::<bool>(),
        buggy in any::<bool>(),
    ) {
        let apps: Vec<_> = corpus::corpus()
            .into_iter()
            .filter(|p| p.category == corpus::Category::App)
            .collect();
        let prog = &apps[prog_idx % apps.len()];
        let backend = if buggy { Backend::sdnet_2018() } else { Backend::reference() };
        let ir = netdebug_p4::compile(prog.source).unwrap();
        if backend.compile(&ir).is_err() {
            return Ok(()); // diagnosed limitation; nothing to run
        }
        let mut dev = Device::deploy(&backend, &ir).unwrap();
        if external {
            let _ = dev.rx(port, &data);
        } else {
            let _ = dev.inject(port, &data);
        }
    }

    /// Tap counters are monotone and internally consistent: stage counts
    /// never decrease, and the egress tap never exceeds the deparser tap.
    #[test]
    fn taps_monotone_and_ordered(
        frames in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..96), 1..16),
    ) {
        let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
        let mut dev = Device::deploy(&Backend::reference(), &ir).unwrap();
        let mut prev: Vec<u64> = dev.stage_counts().to_vec();
        let deparser = dev.stage_names().iter().position(|n| *n == "deparser").unwrap();
        let egress = dev.stage_names().iter().position(|n| *n == "egress").unwrap();
        for frame in &frames {
            dev.inject(0, frame);
            let now: Vec<u64> = dev.stage_counts().to_vec();
            for (a, b) in prev.iter().zip(&now) {
                prop_assert!(b >= a, "counter went backwards");
            }
            prop_assert!(now[egress] <= now[deparser]);
            prev = now;
        }
    }

    /// Device time never runs backwards, and every processed packet
    /// completes no earlier than it was injected.
    #[test]
    fn clock_monotone(
        frames in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 14..96), 1..12),
        gaps in proptest::collection::vec(0u64..1000, 1..12),
    ) {
        let ir = netdebug_p4::compile(corpus::REFLECTOR).unwrap();
        let mut dev = Device::deploy(&Backend::reference(), &ir).unwrap();
        let mut last_now = 0u64;
        for (frame, gap) in frames.iter().zip(gaps.iter().cycle()) {
            dev.advance(*gap);
            let injected_at = dev.now();
            let p = dev.inject(0, frame);
            prop_assert!(dev.now() >= last_now);
            prop_assert!(p.done_at_cycle >= injected_at);
            last_now = dev.now();
        }
    }

    /// Register-bus reads are side-effect free: reading every mapped
    /// address twice yields identical values.
    #[test]
    fn register_reads_are_pure(data in proptest::collection::vec(any::<u8>(), 14..64)) {
        let ir = netdebug_p4::compile(corpus::L2_SWITCH).unwrap();
        let mut dev = Device::deploy(&Backend::reference(), &ir).unwrap();
        dev.rx(0, &data);
        for (_, addr) in dev.reg_map() {
            prop_assert_eq!(dev.read_reg(addr), dev.read_reg(addr));
        }
    }
}
