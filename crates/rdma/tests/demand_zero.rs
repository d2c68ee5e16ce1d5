//! Demand-zero registration: a large region commits only the pages that
//! are written, reads back zero elsewhere, and returns its memory on drop.
//!
//! This is its own test binary with a single test, so no test running in
//! parallel moves the process's resident size while it is measured.

#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use catfish_rdma::MemoryRegion;

/// Resident pages of this process (second field of `/proc/self/statm`).
fn resident_pages() -> usize {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("read /proc/self/statm");
    statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .expect("statm resident field")
}

fn page_size() -> usize {
    extern "C" {
        fn sysconf(name: std::ffi::c_int) -> std::ffi::c_long;
    }
    const SC_PAGESIZE: std::ffi::c_int = 30;
    // SAFETY: `sysconf` only reads a system constant.
    let page = unsafe { sysconf(SC_PAGESIZE) };
    usize::try_from(page).expect("page size is positive")
}

/// With transparent huge pages set to `always`, a first write may fault in
/// a whole 2 MiB page instead of one base page.
fn thp_always() -> bool {
    std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
        .is_ok_and(|mode| mode.contains("[always]"))
}

#[test]
fn large_region_commits_only_written_pages() {
    const REGION: usize = 256 << 20;
    const TOUCHED: usize = 100;
    // Touch every third page so the writes span several huge-page blocks
    // but stay inside the first few MiB.
    const STRIDE_PAGES: usize = 3;
    let page = page_size();

    let before = resident_pages();
    let mr = MemoryRegion::new(REGION, 1);
    let after_new = resident_pages();
    let grown = after_new.saturating_sub(before) * page;
    assert!(
        grown < 4 << 20,
        "registering {REGION} bytes made {grown} bytes resident"
    );

    for i in 0..TOUCHED {
        mr.write_local(i * STRIDE_PAGES * page + 17, &[0xA5]);
    }
    let touched = resident_pages().saturating_sub(after_new);
    let most = if thp_always() {
        let span = TOUCHED * STRIDE_PAGES * page;
        (span.div_ceil(2 << 20) + 1) * ((2 << 20) / page)
    } else {
        TOUCHED + TOUCHED / 4
    };
    assert!(
        (TOUCHED..=most).contains(&touched),
        "writing one byte into each of {TOUCHED} pages made {touched} pages resident"
    );

    // Written bytes read back; everything around them is zero.
    for i in 0..TOUCHED {
        let mut b = [0u8; 3];
        mr.read_local(i * STRIDE_PAGES * page + 16, &mut b);
        assert_eq!(b, [0, 0xA5, 0], "page {i}");
    }
    mr.with_slice(REGION - (1 << 20), 1 << 20, |tail| {
        assert!(tail.iter().all(|&b| b == 0), "untouched tail is not zero");
    });
    mr.with_slice(page, page, |p| assert!(p.iter().all(|&b| b == 0)));

    let with_region = resident_pages();
    drop(mr);
    let released = with_region.saturating_sub(resident_pages());
    assert!(
        released >= TOUCHED,
        "dropping the region released only {released} of {touched} resident pages"
    );
}
