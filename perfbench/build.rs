//! Records the host facts every result is printed with: the compiler
//! version and the profile the benchmark was built with.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(&rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    for key in ["PROFILE", "OPT_LEVEL", "DEBUG"] {
        let value = std::env::var(key).unwrap_or_else(|_| "unknown".into());
        println!("cargo:rustc-env=PERFBENCH_{key}={value}");
    }
    println!("cargo:rerun-if-changed=build.rs");
}
