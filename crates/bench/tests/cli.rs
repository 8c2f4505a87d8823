//! The binary's contract with the scripts: exit codes and the subcommand
//! list. (Dispatch, argument parsing and gate → exit-code mapping are unit
//! tested in `src/tests.rs`; this drives the real process.)

use std::process::Command;

fn flexlog_bench(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_flexlog-bench"))
        .args(args)
        .output()
        .expect("run flexlog-bench");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

#[test]
fn unknown_subcommand_exits_2_with_the_list() {
    let (code, help, stderr) = flexlog_bench(&["--help"]);
    assert_eq!(code, Some(0));
    assert!(stderr.is_empty(), "--help prints to stdout");

    let (code, stdout, stderr) = flexlog_bench(&["fig12", "--quick"]);
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty());
    assert!(stderr.starts_with("flexlog-bench: unknown subcommand `fig12`"), "{stderr}");
    assert!(stderr.ends_with(&help), "the error must carry the --help list:\n{stderr}");
    let some = ["table1", "fig10", "ablation", "repro", "datapath", "elasticity", "fanout", "tiering"];
    for name in some {
        assert!(help.contains(&format!("\n  {name} ")), "{name} missing from the list:\n{help}");
    }
    assert_eq!(flexlog_bench(&[]).0, Some(2), "no subcommand is an error, not a default");
}

#[test]
fn a_table_subcommand_prints_its_table_and_exits_0() {
    let (code, stdout, _) = flexlog_bench(&["fig10", "--quick"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("Figure 10") && stdout.contains("us/record"), "{stdout}");
}
