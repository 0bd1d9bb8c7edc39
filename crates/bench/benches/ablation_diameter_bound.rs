//! **Ablation — tighter diameter estimation (Section 4.3 / citation [1]).**
//!
//! "As a simple approximation to the diameter, all nodes ... compute the
//! height h of the BFT rooted at [a chosen node] and terminate the
//! dissemination algorithm after 2h rounds (2h is an upper bound to the
//! diameter). Still better approximations to the diameter can be computed
//! in linear time, as shown in [Aingworth, Chekuri, Motwani]."
//!
//! The deterministic root (lowest live id) sits in a mesh corner, so `2h`
//! is nearly twice the diameter. The center-based double-sweep bound
//! (`RecoveryConfig::center_diameter_bound`) terminates dissemination in
//! close to diameter-many rounds; this bench measures the saved P2 time.

use flash_bench::{banner, dissemination_ms, ResultSheet, Stopwatch};
use flash_core::RecoveryConfig;

fn main() {
    banner(
        "Ablation: tighter diameter bound for dissemination termination",
        "Teodosiu et al., ISCA'97, Section 4.3 + citation [1]",
    );
    let sw = Stopwatch::start();
    let mut sheet = ResultSheet::new(
        "ablation_diameter_bound",
        "Section 4.3 / [1]",
        &["p2_2h_ms", "p2_center_ms"],
    );
    println!(
        "{:>6} {:>16} {:>18} {:>10}",
        "nodes", "P2 2h-bound [ms]", "P2 center-bound [ms]", "saved"
    );
    for &n in &[16usize, 32, 64, 128] {
        let p2_ms = |on| {
            let recovery = RecoveryConfig {
                center_diameter_bound: on,
                ..Default::default()
            };
            dissemination_ms(n, recovery, 61)
        };
        let plain = p2_ms(false);
        let center = p2_ms(true);
        sheet.push(format!("nodes={n}"), &[plain, center]);
        println!(
            "{n:>6} {plain:>16.3} {center:>18.3} {:>9.1}%",
            100.0 * (plain - center) / plain
        );
    }
    println!("\nthe corner-rooted 2h bound runs nearly 2x the diameter in rounds;");
    println!(
        "a near-central estimate halves the dissemination phase.   [{:.1}s host]",
        sw.secs()
    );
    sheet.write();
}
