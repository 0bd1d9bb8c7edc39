//! **Ablation — deferred BFT computation via hints (Section 4.3).**
//!
//! "The BFT computations have to be carefully scheduled in order to avoid
//! slowing down the dissemination phase. ... during the dissemination phase
//! we only compute the BFT on a few nodes for which LState and NState
//! stabilize first. Those nodes send the resulting diameter estimation as a
//! hint to their neighbors during subsequent rounds."
//!
//! With hints disabled, every node computes its own BFT height on its
//! critical path as soon as its view stabilizes, serializing the O(n)
//! uncached computation into the round schedule; with hints, most nodes
//! adopt the propagated bound for free. This bench measures the
//! dissemination-phase duration both ways.

use flash_bench::{banner, dissemination_ms, Stopwatch};
use flash_core::RecoveryConfig;

fn main() {
    banner(
        "Ablation: deferred BFT computation (dissemination hints)",
        "Teodosiu et al., ISCA'97, Section 4.3 (BFT scheduling optimization)",
    );
    let sw = Stopwatch::start();
    println!(
        "{:>6} {:>18} {:>18} {:>10}",
        "nodes", "P2 no hints [ms]", "P2 hints [ms]", "saved"
    );
    for &n in &[16usize, 32, 64, 128] {
        let p2_ms = |on| {
            let recovery = RecoveryConfig {
                bft_hints: on,
                ..Default::default()
            };
            dissemination_ms(n, recovery, 41)
        };
        let without = p2_ms(false);
        let with = p2_ms(true);
        println!(
            "{n:>6} {without:>18.3} {with:>18.3} {:>9.2}%",
            100.0 * (without - with) / without.max(1e-9)
        );
    }
    println!("\nthe saving is the per-node BFT cost removed from the round critical path");
    println!(
        "on every node that receives a hint before stabilizing.   [{:.1}s host]",
        sw.secs()
    );
}
