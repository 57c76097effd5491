//! Spatial-locality diagnosis and loop interchange (§7.4, SPECjvm2008 Scimark.fft.large).
//!
//! ```text
//! cargo run --example fft_locality
//! ```
//!
//! Profiles the FFT kernel, shows that the `data` array dominates the program's L1
//! misses with its hottest accesses inside `transform_internal`, applies the paper's
//! loop-interchange fix, and reports the miss reduction and speedup.

use djx_workloads::fft::FftWorkload;
use djx_workloads::runner::{run_profiled, run_unprofiled, speedup};
use djx_workloads::Variant;
use djxperf::{ProfilerConfig, Report, ReportOptions};

fn main() {
    let config = ProfilerConfig::default().with_period(512);

    println!("== baseline: Scimark FFT, original loop order ==\n");
    let baseline = run_profiled(&FftWorkload::new(Variant::Baseline), config);
    println!(
        "{}",
        Report::query(&baseline.report, &baseline.methods).with_options(ReportOptions {
            top_objects: 1,
            top_contexts: 2,
            full_alloc_paths: true
        })
    );
    let data = baseline
        .report
        .find_class("double[] (data)")
        .expect("the data array is sampled");
    println!(
        "data array: {:.1}% of sampled L1 misses (paper: 75.5%)\n",
        data.fraction_of_total * 100.0
    );

    println!("== optimization: interchange the a/b loops to shrink the access stride ==\n");
    let base = run_unprofiled(&FftWorkload::new(Variant::Baseline));
    let opt = run_unprofiled(&FftWorkload::new(Variant::Optimized));
    let miss_cut = 1.0 - opt.hierarchy.l1_misses as f64 / base.hierarchy.l1_misses.max(1) as f64;
    println!(
        "L1 misses: {} -> {}  ({:.0}% reduction; paper: ~70% of program misses removed)",
        base.hierarchy.l1_misses,
        opt.hierarchy.l1_misses,
        miss_cut * 100.0
    );
    println!("whole-program speedup: {:.2}x (paper: 2.37x)", speedup(&base, &opt));
}
