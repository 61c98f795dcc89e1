//! Integration tests for the `tpn` command-line driver: every analysis
//! subcommand is exercised against a `.tpn` fixture of the paper's
//! Figure-1 protocol and its stdout is checked against the paper's
//! numbers (18 reachable states, ≈2.85 messages/second throughput).

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

fn fixture() -> String {
    format!("{}/tests/fixtures/fig1.tpn", env!("CARGO_MANIFEST_DIR"))
}

fn tpn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tpn"))
        .args(args)
        .output()
        .expect("tpn binary runs")
}

fn stdout_of(args: &[&str]) -> String {
    let out = tpn(args);
    assert!(
        out.status.success(),
        "tpn {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("tpn prints UTF-8")
}

#[test]
fn show_prints_net_statistics() {
    let out = stdout_of(&["show", &fixture()]);
    assert!(
        out.contains("simple-protocol"),
        "net name in output:\n{out}"
    );
    assert!(
        out.contains(
            "8 places, 9 transitions, 20 arcs, 6 conflict sets (3 non-trivial), 2 initial tokens"
        ),
        "stats line in output:\n{out}"
    );
}

#[test]
fn graph_reports_the_papers_18_states() {
    let out = stdout_of(&["graph", &fixture()]);
    let first = out.lines().next().unwrap_or_default();
    assert!(
        first.starts_with("18 states"),
        "the paper's Figure 4 has 18 states, got: {first}"
    );
    // the state table and the DOT rendering both follow
    assert!(out.contains("s17"), "all 18 states tabulated:\n{out}");
    assert!(out.contains("digraph trg"));
}

#[test]
fn analyze_reproduces_the_papers_throughput() {
    let out = stdout_of(&["analyze", &fixture(), "t7"]);
    assert!(out.contains("decision graph:"));
    assert!(out.contains("rates and weights"));
    // §4: ≈ 2.8518 successfully acknowledged messages per second, i.e.
    // 0.0028518 per millisecond, printed to six decimals.
    let t7 = out
        .lines()
        .find(|l| l.trim_start().starts_with("t7"))
        .expect("throughput line for t7");
    assert!(t7.contains("0.002852"), "paper throughput, got: {t7}");
}

#[test]
fn simulate_runs_reproducibly() {
    let out = stdout_of(&["simulate", &fixture(), "20000", "7"]);
    assert!(
        out.contains("20000 events"),
        "event budget respected:\n{out}"
    );
    // identical seed → identical run
    assert_eq!(out, stdout_of(&["simulate", &fixture(), "20000", "7"]));
    // the sender's send and ACK-receipt transitions both progressed
    for t in ["t2", "t7"] {
        let line = out
            .lines()
            .find(|l| l.trim_start().starts_with(t))
            .expect("per-transition stats line");
        assert!(
            !line.contains("completed        0"),
            "{t} progressed: {line}"
        );
    }
}

#[test]
fn correctness_and_invariants_report() {
    let out = stdout_of(&["correctness", &fixture()]);
    assert!(out.contains("verdict:"), "correctness verdict:\n{out}");
    let out = stdout_of(&["invariants", &fixture()]);
    assert!(out.contains("P-semiflows"));
    assert!(out.contains("T-semiflows"));
}

#[test]
fn dot_renders_the_net() {
    let out = stdout_of(&["dot", &fixture()]);
    assert!(out.contains("digraph"));
    assert!(out.contains("t4"));
}

#[test]
fn bad_usage_fails_cleanly() {
    assert!(!tpn(&[]).status.success());
    assert!(!tpn(&["frobnicate", &fixture()]).status.success());
    assert!(!tpn(&["show", "/nonexistent/net.tpn"]).status.success());
}

#[test]
fn version_flag() {
    let out = stdout_of(&["--version"]);
    assert!(out.starts_with("tpn "), "{out}");
    assert_eq!(out, stdout_of(&["-V"]));
}

#[test]
fn global_help_lists_every_command() {
    let out = stdout_of(&["--help"]);
    for cmd in [
        "show",
        "dot",
        "graph",
        "analyze",
        "correctness",
        "invariants",
        "simulate",
        "serve",
        "batch",
    ] {
        assert!(out.contains(cmd), "{cmd} listed in:\n{out}");
    }
    assert_eq!(out, stdout_of(&["help"]));
}

#[test]
fn help_text_matches_the_shared_simulate_defaults() {
    // The defaults live in tpn-service (DEFAULT_SIM_EVENTS/SEED) and
    // the help summary hardcodes the rendered values; this pins them
    // together so changing the constants cannot silently leave stale
    // documentation behind.
    use timed_petri::service::{DEFAULT_SIM_EVENTS, DEFAULT_SIM_SEED};
    let out = stdout_of(&["help", "simulate"]);
    let expected = format!("defaults: {DEFAULT_SIM_EVENTS} events, seed 0x{DEFAULT_SIM_SEED:X}");
    assert!(out.contains(&expected), "{expected:?} in:\n{out}");
}

#[test]
fn per_command_usage_messages() {
    // `tpn help <cmd>` and `tpn <cmd> --help` print that command's usage
    let out = stdout_of(&["help", "simulate"]);
    assert!(
        out.contains("tpn simulate <net.tpn> [EVENTS [SEED]]"),
        "{out}"
    );
    assert_eq!(out, stdout_of(&["simulate", "--help"]));
    // a bad invocation fails with the *per-command* usage, not the
    // global one
    let out = tpn(&["analyze"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("tpn analyze <net.tpn> [TRANSITION..]"),
        "{err}"
    );
    assert!(
        !err.contains("tpn show <net.tpn>"),
        "global table not dumped: {err}"
    );
    // unknown help topics fail
    assert!(!tpn(&["help", "frobnicate"]).status.success());
}

#[test]
fn batch_emits_one_json_line_per_file() {
    let dir = format!("{}/tests/fixtures", env!("CARGO_MANIFEST_DIR"));
    let out = stdout_of(&["batch", &dir, "correctness"]);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 1, "one fixture, one line:\n{out}");
    assert!(lines[0].contains(r#""file":"fig1.tpn""#), "{out}");
    assert!(lines[0].contains(r#""kind":"correctness""#), "{out}");
    assert!(lines[0].contains(r#""digest":""#), "{out}");
    // bad directory and bad kind fail cleanly
    assert!(!tpn(&["batch", "/nonexistent-dir"]).status.success());
    assert!(!tpn(&["batch", &dir, "frobnicate"]).status.success());
}

#[test]
fn show_prints_the_content_digest() {
    let out = stdout_of(&["show", &fixture()]);
    let line = out
        .lines()
        .find(|l| l.starts_with("digest "))
        .expect("digest line");
    assert_eq!(line.len(), "digest ".len() + 32, "{line}");
}

#[test]
fn internal_panic_is_one_error_line_and_exit_1() {
    // lossy2's exact rates overflow i128, so the pipeline panics. When
    // the rational arithmetic loses its i128 ceiling (ROADMAP), this
    // case needs another net that panics.
    let net = format!(
        "{}/tests/fixtures/overflow/lossy2.tpn",
        env!("CARGO_MANIFEST_DIR")
    );
    let out = tpn(&["analyze", &net]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.starts_with("tpn: internal error: "), "{err}");
    assert!(!err.contains("backtrace"), "{err}");
}

#[test]
fn closed_stdout_pipe_ends_quietly() {
    // `tpn show` of a 3000-stage ring prints ~220 KB, more than any pipe
    // buffer holds, so writes after the reader hangs up fail with EPIPE.
    let n = 3000;
    let mut src = String::from("net ring\n");
    for i in 0..n {
        let init = if i == 0 { " init 1" } else { "" };
        src.push_str(&format!("place p{i}{init}\n"));
    }
    for i in 0..n {
        src.push_str(&format!(
            "trans t{i} in p{i} out p{} firing 1\n",
            (i + 1) % n
        ));
    }
    let path = std::env::temp_dir().join(format!("tpn-cli-pipe-{}.tpn", std::process::id()));
    std::fs::write(&path, src).expect("write the ring net");
    let mut child = Command::new(env!("CARGO_BIN_EXE_tpn"))
        .arg("show")
        .arg(&path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("tpn binary runs");
    // Read the first line, as `tpn show ring.tpn | head -1` would, then
    // close the pipe.
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first line");
    let out = child.wait_with_output().expect("tpn exits");
    std::fs::remove_file(&path).ok();
    assert_eq!(first, "net ring\n");
    assert_eq!(String::from_utf8_lossy(&out.stderr), "");
    assert_eq!(out.status.code(), Some(0));
}
