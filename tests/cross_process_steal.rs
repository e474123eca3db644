//! The `cross_process_steal` example as a test: a thread started in one
//! address space continues in another, at the same virtual addresses,
//! with its intra-stack pointers intact. It skips, with the probe's
//! reason, only where the kernel cannot run it.

#[allow(dead_code)] // the example's `main`
#[path = "../examples/cross_process_steal.rs"]
mod example;

#[test]
fn migrate_a_started_thread_across_address_spaces() {
    for probe in [
        example::probe_process_vm_readv,
        example::probe_fixed_noreplace,
    ] {
        // A probe returns (it does not crash) and names its reason.
        if let Err(e) = probe() {
            assert!(!e.is_empty());
            eprintln!("skipping cross-process steal test: {e}");
            return;
        }
    }
    let out = example::steal_with_retries(5)
        .expect("kernel probes passed; the cross-process steal must succeed");
    assert_eq!(out.result, example::expected_result());
    assert!(out.frames_bytes > 0 && out.frames_bytes < example::UNI_SIZE as u64);
}
