//! The `report` binary's command line: an artifact name it does not know
//! is an error, not a silent no-op a CI step would read as success.

use std::process::Command;

#[test]
fn unknown_artifact_name_is_rejected() {
    // `par` and `hybrid` were artifacts until the worker pool and the §7
    // hybrid rekeying were removed.
    for bogus in ["par", "hybrid", "tabel1"] {
        let out = Command::new(env!("CARGO_BIN_EXE_report"))
            .args(["--quick", "table1", bogus])
            .output()
            .expect("spawn report");
        assert_eq!(out.status.code(), Some(2), "{bogus}: exit code");
        assert!(out.stdout.is_empty(), "{bogus}: nothing may run before the names are checked");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown artifact {bogus:?}")), "{stderr}");
        assert!(stderr.contains("table1") && stderr.contains("derived"), "lists the valid names");
    }
}
