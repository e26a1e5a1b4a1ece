//! The one-device cases of the happens-before replay in [`crate::fabric`]:
//! [`Sanitizer::check_device`](crate::Sanitizer::check_device)'s path, one
//! device's log replayed with no fabric.

#[cfg(test)]
mod tests {
    use crate::fabric::check_logs;
    use crate::report::{Diagnostic, DiagnosticKind};
    use gpu_sim::{
        BufferId, ByteRange, Device, DeviceProps, Dim3, KernelCost, KernelDesc, LaunchConfig,
    };

    fn kernel(name: &str) -> KernelDesc {
        KernelDesc::new(
            name,
            LaunchConfig::new(Dim3::linear(4), Dim3::linear(128), 32, 0),
            KernelCost::new(1.0e5, 1.0e4),
        )
    }

    fn check(dev: &Device) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check_logs(None, &[dev], &[dev.command_log()], "test", &mut out);
        out
    }

    #[test]
    fn same_stream_conflicts_are_ordered() {
        let buf = BufferId::from_label("hb/a");
        let mut dev = Device::new(DeviceProps::p100());
        let s = dev.create_stream();
        dev.launch(s, kernel("w0").writes(buf, ByteRange::new(0, 64)));
        dev.launch(s, kernel("w1").writes(buf, ByteRange::new(0, 64)));
        dev.run();
        assert_eq!(check(&dev), vec![]);
    }

    #[test]
    fn cross_stream_unordered_write_is_a_race() {
        let buf = BufferId::from_label("hb/b");
        let mut dev = Device::new(DeviceProps::p100());
        let s0 = dev.create_stream();
        let s1 = dev.create_stream();
        dev.launch(s0, kernel("w0").writes(buf, ByteRange::new(0, 64)));
        dev.launch(s1, kernel("w1").writes(buf, ByteRange::new(32, 96)));
        dev.run();
        let out = check(&dev);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, DiagnosticKind::DataRace);
        let s = out[0].to_string();
        assert!(s.contains("`w0`") && s.contains("`w1`"), "{s}");
        assert!(s.contains("[32, 64)"), "{s}");
    }

    #[test]
    fn event_order_suppresses_the_race() {
        let buf = BufferId::from_label("hb/c");
        let mut dev = Device::new(DeviceProps::p100());
        let s0 = dev.create_stream();
        let s1 = dev.create_stream();
        dev.launch(s0, kernel("w0").writes(buf, ByteRange::new(0, 64)));
        let ev = dev.create_event();
        dev.record_event(s0, ev);
        dev.wait_event(s1, ev);
        dev.launch(s1, kernel("w1").writes(buf, ByteRange::new(0, 64)));
        dev.run();
        assert_eq!(check(&dev), vec![]);
    }

    #[test]
    fn wait_enqueued_before_record_still_orders() {
        // Host issues s1's wait before s0's record — legal, the engine
        // blocks s1. The worklist replay must handle it.
        let buf = BufferId::from_label("hb/d");
        let mut dev = Device::new(DeviceProps::p100());
        let s0 = dev.create_stream();
        let s1 = dev.create_stream();
        let ev = dev.create_event();
        dev.wait_event(s1, ev);
        dev.launch(s0, kernel("w0").writes(buf, ByteRange::new(0, 64)));
        dev.record_event(s0, ev);
        dev.launch(s1, kernel("w1").writes(buf, ByteRange::new(0, 64)));
        dev.run();
        assert_eq!(check(&dev), vec![]);
    }

    #[test]
    fn sync_orders_across_run_episodes() {
        let buf = BufferId::from_label("hb/e");
        let mut dev = Device::new(DeviceProps::p100());
        let s0 = dev.create_stream();
        let s1 = dev.create_stream();
        dev.launch(s0, kernel("w0").writes(buf, ByteRange::new(0, 64)));
        dev.run();
        dev.launch(s1, kernel("w1").writes(buf, ByteRange::new(0, 64)));
        dev.run();
        assert_eq!(check(&dev), vec![], "run() is a device-wide barrier");
    }

    #[test]
    fn undeclared_kernels_are_skipped() {
        let mut dev = Device::new(DeviceProps::p100());
        let s0 = dev.create_stream();
        let s1 = dev.create_stream();
        dev.launch(s0, kernel("k0"));
        dev.launch(s1, kernel("k1"));
        dev.run();
        assert_eq!(check(&dev), vec![]);
    }

    #[test]
    fn read_read_overlap_is_not_a_race() {
        let buf = BufferId::from_label("hb/f");
        let mut dev = Device::new(DeviceProps::p100());
        let s0 = dev.create_stream();
        let s1 = dev.create_stream();
        dev.launch(s0, kernel("r0").reads(buf, ByteRange::new(0, 64)));
        dev.launch(s1, kernel("r1").reads(buf, ByteRange::new(0, 64)));
        dev.run();
        assert_eq!(check(&dev), vec![]);
    }
}
