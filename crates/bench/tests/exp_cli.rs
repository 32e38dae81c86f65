//! Smoke test of the `exp` binary's command line: the two experiments
//! that run no simulation succeed, and a bad command line fails with
//! status 2 and a usage text naming every experiment.

use std::process::{Command, Output};

const EXPERIMENTS: &str = "all lb8 mb4 table1 table2 table3 table4 table5 ablations \
                           cc comm faults hotspot logdisk partition phases victim bench";

fn exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .env_remove("CARAT_MEASURE_MS")
        .output()
        .expect("run exp")
}

#[test]
fn table1_and_table2_print_their_checks() {
    for (name, check) in [
        (
            "table1",
            "every row sums to 1                            OK",
        ),
        (
            "table1",
            "TM row splits n/C, l/C, r/C, 1/C with C = 2n+1 OK",
        ),
        ("table2", "all values match the paper's Table 2: OK"),
    ] {
        let out = exp(&[name]);
        assert!(out.status.success(), "{out:?}");
        assert!(
            String::from_utf8(out.stdout).unwrap().contains(check),
            "{name}: {check}"
        );
    }
}

#[test]
fn bad_command_lines_exit_2_with_the_usage() {
    for args in [&["nosuch"][..], &["table1", "--bogus"], &[]] {
        let out = exp(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        for name in EXPERIMENTS.split_whitespace() {
            assert!(
                stderr.lines().any(|l| l.starts_with(&format!("  {name} "))),
                "{args:?}: usage does not list {name}:\n{stderr}"
            );
        }
    }
}
