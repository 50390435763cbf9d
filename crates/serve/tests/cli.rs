//! `pcm-serve` rejects flags its subcommand does not read, rather than
//! silently running with defaults.

use std::process::Command;

fn exit_code(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_pcm-serve"))
        .args(args)
        .output()
        .expect("pcm-serve runs")
        .status
        .code()
}

#[test]
fn removed_quick_flag_is_a_usage_error() {
    assert_eq!(
        exit_code(&["open-loop", "--quick", "--requests", "10"]),
        Some(2)
    );
}

#[test]
fn misspelled_flag_is_a_usage_error() {
    // `--rank` (for `--ranks`) used to run a 1-rank engine without a word.
    assert_eq!(
        exit_code(&[
            "open-loop",
            "--rank",
            "4",
            "--requests",
            "10",
            "--tenants",
            "2"
        ]),
        Some(2)
    );
}
